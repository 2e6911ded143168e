// Encoder-schedule x decoder-strategy matrix tests (PR10).
//
// Five layers of guarantees:
//   * equivalence: the banded-pivot eliminator and the generic grouped
//     rref are the same code on the wire — identical draws, rounds, and
//     decodes over several seeds — and differ only in elimination cost
//     (banded XORs strictly fewer words);
//   * differential: a generation or full-span coder's on-insert
//     elimination does the XORs, and reaches the rank, decodable set and
//     payloads, of a batch gf2_rref over each window's arrivals;
//   * byte-identity: the n16 sweep dumps bytes equal to the committed
//     goldens at 1, 2, 4 and 8 workers — the default-path
//     cells (no link:/content:/sched:/dec: axis), the axis cells and the
//     n32 cells of the flood-then-broadcast machines each against their
//     own file;
//   * decode-delay: the new session metrics are shaped sanely (p50 <= p90
//     <= max, events == n*k for complete one-shot coded runs) and absent
//     for token-forwarding protocols;
//   * validation: the registry rejects invalid sched=/dec= combos with
//     messages listing the recognized values.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "coding/matrix.hpp"
#include "core/session.hpp"
#include "linalg/bitmatrix.hpp"
#include "protocols/rlnc_broadcast.hpp"
#include "runner/sweep.hpp"

namespace ncdn {
namespace {

// --- banded vs generic grouped elimination ----------------------------------

struct run_signature {
  round_t rounds = 0;
  std::uint64_t xors = 0;
  std::vector<std::uint64_t> decode_hashes;
  std::vector<std::size_t> progress;

  bool same_wire(const run_signature& o) const {
    return rounds == o.rounds && decode_hashes == o.decode_hashes &&
           progress == o.progress;
  }
};

run_signature run_backend(std::unique_ptr<coding_backend> backend,
                          std::uint64_t seed, std::size_t n = 10,
                          std::size_t k = 12, std::size_t d = 16) {
  rng payload_rng(seed);
  auto adv = make_permuted_path(n, seed * 3 + 1);
  network net(n, k + d, *adv, seed * 5 + 2);
  rlnc_session s(n, k, d, std::move(backend));
  std::vector<bitvec> payloads;
  for (std::size_t i = 0; i < k; ++i) {
    bitvec p(d);
    p.randomize(payload_rng);
    payloads.push_back(p);
    s.seed(static_cast<node_id>(i % n), i, p);
  }
  run_signature sig;
  sig.rounds =
      run_rounds(s.run_stepped(net, 400 * (n + k), /*stop_early=*/true));
  EXPECT_TRUE(s.all_complete());
  sig.xors = s.xor_word_ops();
  for (node_id u = 0; u < n; ++u) {
    sig.progress.push_back(s.decode_progress(u));
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(s.decode(u, i), payloads[i]);
      sig.decode_hashes.push_back(s.decode(u, i).hash());
    }
  }
  return sig;
}

TEST(decoder_matrix, banded_equals_generic_on_the_wire_and_costs_less) {
  // Same generation layout, same schedule, same seeds: the two decoder
  // strategies must produce identical draws (hence rounds and decodes);
  // the banded eliminator XORs only g+w+d-bit-wide rows, so its word
  // count is strictly smaller.  Sizes are picked so the full row
  // (k+d = 128 bits) spans two words while the band window
  // (g+w+d = 52 bits) fits in one — a word-granular counter can only
  // see the saving once the widths straddle a word boundary.
  const std::size_t n = 10, k = 96, d = 32;
  for (const std::uint64_t seed : {11ull, 23ull, 37ull}) {
    matrix_spec banded;
    banded.dec = "banded";
    banded.gen_size = 16;
    banded.band_overlap = 4;
    matrix_spec generic = banded;
    generic.dec = "rref";
    const run_signature b =
        run_backend(make_matrix_backend(banded), seed, n, k, d);
    const run_signature g =
        run_backend(make_matrix_backend(generic), seed, n, k, d);
    EXPECT_TRUE(b.same_wire(g)) << "seed " << seed;
    EXPECT_LT(b.xors, g.xors) << "seed " << seed;
  }
}

TEST(decoder_matrix, systematic_and_feedback_schedules_complete) {
  matrix_spec sys;
  sys.sched = "systematic";
  (void)run_backend(make_matrix_backend(sys), 13);  // EXPECTs inside

  matrix_spec fb;
  fb.sched = "feedback";
  fb.dec = "banded";
  fb.gen_size = 4;
  fb.band_overlap = 1;
  (void)run_backend(make_matrix_backend(fb), 17);
}

// --- differential: on-insert elimination vs batch gf2_rref -------------------

// The batch reference: per generation, the rows that arrived (narrow
// [window | payload] ones for dec=banded), re-reduced from scratch by
// gf2_rref.  A batch pass over rows r1..rm does the XORs of m online
// elimination steps, so its count must equal the coder's.
struct batch_reference {
  struct generation {
    std::size_t start = 0;
    std::size_t width = 0;
    std::vector<bitvec> arrived;
  };
  std::size_t k = 0;
  std::size_t d = 0;
  bool narrow = false;
  std::vector<generation> gens;

  batch_reference(std::size_t k_, std::size_t d_, std::size_t g,
                  std::size_t w, bool narrow_)
      : k(k_), d(d_), narrow(narrow_) {
    for (std::size_t start = 0; start < k; start += g) {
      gens.push_back({start, std::min(g + w, k - start), {}});
    }
  }

  void insert(const bitvec& row) {
    const std::size_t lo = row.first_set();
    if (lo >= k) return;
    std::size_t hi = lo;
    for (std::size_t i = lo; i < k; ++i) {
      if (row.get(i)) hi = i;
    }
    for (generation& g : gens) {
      if (g.start > lo || hi >= g.start + g.width) continue;
      if (narrow) {
        bitvec slim(g.width + d);
        slim.copy_bits_from(row, g.start, g.width, 0);
        slim.copy_bits_from(row, k, d, g.width);
        g.arrived.push_back(std::move(slim));
      } else {
        g.arrived.push_back(row);
      }
    }
  }

  // XOR word-ops of the batch pass; sets `decodable` to the tokens with a
  // singleton row in some generation, `payload` to their payloads and
  // `rank` (when given) to the summed rank of the generations.
  std::uint64_t reduce(std::vector<bool>& decodable,
                       std::vector<bitvec>& payload,
                       std::size_t* rank = nullptr) const {
    std::uint64_t xors = 0;
    decodable.assign(k, false);
    payload.assign(k, bitvec());
    if (rank != nullptr) *rank = 0;
    for (const generation& g : gens) {
      std::vector<bitvec> rows = g.arrived;
      const std::vector<std::size_t> pivots = gf2_rref(rows, &xors);
      if (rank != nullptr) *rank += pivots.size();
      const std::size_t coeff_bits = narrow ? g.width : k;
      for (std::size_t r = 0; r < rows.size(); ++r) {
        if (rows[r].popcount_below(coeff_bits) != 1) continue;
        const std::size_t token = narrow ? g.start + pivots[r] : pivots[r];
        decodable[token] = true;
        payload[token] = rows[r].slice(coeff_bits, d);
      }
    }
    return xors;
  }
};

// A row over tokens [lo, hi] (lo and hi always set, each token between
// them with probability 1/2), carrying the matching payload sum.
bitvec consistent_row(const std::vector<bitvec>& payloads, std::size_t lo,
                      std::size_t hi, rng& r) {
  const std::size_t k = payloads.size();
  const std::size_t d = payloads[0].size();
  bitvec row(k + d);
  bitvec sum(d);
  for (std::size_t i = lo; i <= hi; ++i) {
    if (i == lo || i == hi || r.coin()) {
      row.set(i);
      sum.xor_with(payloads[i]);
    }
  }
  row.copy_bits_from(sum, 0, d, k);
  return row;
}

TEST(decoder_matrix, on_insert_elimination_matches_batch_rref) {
  // k is not a multiple of g, so the last generation is narrower; w > 0,
  // so the bands [j*g, j*g + w) lie in two generations' windows.
  const std::size_t k = 37, d = 24, g = 8, w = 3;
  for (const char* dec : {"banded", "rref"}) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull, 6ull}) {
      SCOPED_TRACE(std::string(dec) + " seed " + std::to_string(seed));
      matrix_spec spec;
      spec.dec = dec;
      spec.gen_size = g;
      spec.band_overlap = w;
      const std::unique_ptr<node_coder> coder =
          make_matrix_backend(spec)->make_node_coder(k, d);
      batch_reference ref(k, d, g, w, spec.dec == "banded");
      rng r(seed);
      std::vector<bitvec> payloads;
      for (std::size_t i = 0; i < k; ++i) {
        payloads.emplace_back(d);
        payloads.back().randomize(r);
      }
      std::vector<bool> decodable;
      std::vector<bitvec> payload;
      std::size_t shared = 0, orphaned = 0;
      for (std::size_t step = 0; step < 320; ++step) {
        const std::size_t gen = r.below(ref.gens.size());
        const std::size_t start = gen * g;
        const std::size_t end = std::min(start + g + w, k);  // window end
        bitvec row(k + d);
        switch (r.below(5)) {
          case 0:  // zero row
            break;
          case 1: {  // one token of the window, uncoded
            const std::size_t i = start + r.below(end - start);
            row = consistent_row(payloads, i, i, r);
            break;
          }
          case 2: {  // overlap band: taken by generations gen-1 and gen
            if (gen == 0) break;
            const std::size_t lo = start + r.below(w);
            row = consistent_row(payloads, lo, lo + r.below(start + w - lo),
                                 r);
            ++shared;
            break;
          }
          case 3:  // straddles two windows: no generation takes it
            if (start + g + w >= k) break;
            row = consistent_row(payloads, start + r.below(g),
                                 start + g + w + r.below(k - start - g - w),
                                 r);
            ++orphaned;
            break;
          default:  // anywhere inside the window
            row = consistent_row(payloads, start, end - 1, r);
            break;
        }
        coder->insert(row);
        ref.insert(row);
        const std::uint64_t ref_xors = ref.reduce(decodable, payload);
        ASSERT_EQ(coder->xor_word_ops(), ref_xors) << "step " << step;
        std::size_t count = 0;
        for (std::size_t i = 0; i < k; ++i) {
          ASSERT_EQ(coder->can_decode(i), decodable[i])
              << "step " << step << " token " << i;
          if (!decodable[i]) continue;
          ++count;
          EXPECT_EQ(payload[i], payloads[i]);
          EXPECT_EQ(coder->decode(i), payloads[i]);
        }
        EXPECT_EQ(coder->decode_progress(), count);
        EXPECT_EQ(coder->rank(), count);
        EXPECT_EQ(coder->complete(), count == k);
      }
      EXPECT_GT(shared, 0u);
      EXPECT_GT(orphaned, 0u);
      EXPECT_TRUE(coder->complete());
    }
  }
}

TEST(decoder_matrix, full_span_elimination_matches_batch_rref) {
  // The full-span layout is one window [0, k): its online elimination must
  // do the XORs of a batch gf2_rref over every arrival and reach the same
  // rank, decodable set and payloads.  The k values put the pivot mask in
  // one to three words, and with d = 24 the payload shares a word with the
  // coefficients.
  const std::size_t d = 24;
  for (const std::size_t k : {37u, 64u, 65u, 130u}) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      SCOPED_TRACE("k " + std::to_string(k) + " seed " + std::to_string(seed));
      const std::unique_ptr<node_coder> coder =
          make_matrix_backend(matrix_spec{})->make_node_coder(k, d);
      batch_reference ref(k, d, k, 0, /*narrow_=*/false);
      ASSERT_EQ(ref.gens.size(), 1u);
      rng r(seed);
      std::vector<bitvec> payloads;
      for (std::size_t i = 0; i < k; ++i) {
        payloads.emplace_back(d);
        payloads.back().randomize(r);
      }
      std::vector<bool> decodable;
      std::vector<bitvec> payload;
      // Insert until full rank, then 20 more (all dependent) rows.
      for (std::size_t step = 0, after = 0; after < 20; ++step) {
        ASSERT_LT(step, 40 * k) << "never reached full rank";
        bitvec row(k + d);
        switch (r.below(4)) {
          case 0:  // zero row
            break;
          case 1: {  // one token, uncoded
            const std::size_t i = r.below(k);
            row = consistent_row(payloads, i, i, r);
            break;
          }
          case 2: {  // a short run of tokens
            const std::size_t lo = r.below(k);
            row = consistent_row(payloads, lo,
                                 std::min(k - 1, lo + r.below(8)), r);
            break;
          }
          default: {  // anywhere
            const std::size_t lo = r.below(k);
            row = consistent_row(payloads, lo, lo + r.below(k - lo), r);
            break;
          }
        }
        coder->insert(row);
        ref.insert(row);
        std::size_t rank = 0;
        const std::uint64_t ref_xors = ref.reduce(decodable, payload, &rank);
        ASSERT_EQ(coder->xor_word_ops(), ref_xors) << "step " << step;
        ASSERT_EQ(coder->rank(), rank) << "step " << step;
        std::size_t count = 0;
        for (std::size_t i = 0; i < k; ++i) {
          ASSERT_EQ(coder->can_decode(i), decodable[i])
              << "step " << step << " token " << i;
          if (!decodable[i]) continue;
          ++count;
          EXPECT_EQ(payload[i], payloads[i]);
          EXPECT_EQ(coder->decode(i), payloads[i]);
        }
        EXPECT_EQ(coder->decode_progress(), count);
        EXPECT_EQ(coder->complete(), rank == k);
        if (rank == k) ++after;
      }
    }
  }
}

// --- registry: sched=/dec= validation ----------------------------------------

TEST(decoder_matrix, registry_rejects_invalid_combos_listing_recognized) {
  problem prob;
  prob.n = 8;
  prob.k = 8;
  prob.d = 8;
  prob.b = 32;
  auto expect_reject = [&](const char* alg, param_map params,
                           const char* needle) {
    try {
      session s(prob, protocol_spec{alg, std::move(params)},
                adversary_spec{"permuted-path", {}}, 1);
      FAIL() << alg << " accepted an invalid matrix combo";
    } catch (const std::invalid_argument& err) {
      EXPECT_NE(std::string(err.what()).find(needle), std::string::npos)
          << err.what();
    }
  };
  // Unknown axis values name the recognized set.
  expect_reject("rlnc-direct", {{"sched", "bogus"}}, "recognized");
  expect_reject("rlnc-direct", {{"dec", "bogus"}}, "recognized");
  // Generation-only axis values on the full-span layout.
  expect_reject("rlnc-direct", {{"dec", "banded"}}, "generation");
  expect_reject("rlnc-direct", {{"sched", "feedback"}}, "generation");
  expect_reject("rlnc-sparse", {{"sched", "feedback"}}, "generation");
  // Valid combos construct.
  session ok(prob, protocol_spec{"rlnc-gen", {{"sched", "feedback"}}},
             adversary_spec{"permuted-path", {}}, 1);
  session ok2(prob, protocol_spec{"rlnc-direct", {{"sched", "systematic"}}},
              adversary_spec{"permuted-path", {}}, 1);
}

// --- decode-delay metrics -----------------------------------------------------

TEST(decoder_matrix, decode_delay_metrics_shape_and_population) {
  problem prob;
  prob.n = 8;
  prob.k = 8;
  prob.d = 8;
  prob.b = 32;
  session s(prob, protocol_spec{"rlnc-direct", {}},
            adversary_spec{"permuted-path", {}}, 21);
  std::uint64_t observed = 0;
  s.set_observer([&](const round_metrics& m) {
    if (m.decode_delay_active) observed += m.newly_decodable;
  });
  const run_report rep = s.run_to_completion();
  ASSERT_TRUE(rep.complete);
  const session_metrics& m = rep.metrics;
  ASSERT_TRUE(m.decode_delay_active);
  // Every (node, token) pair becomes decodable exactly once.
  EXPECT_EQ(m.decode_delay_events, prob.n * prob.k);
  EXPECT_EQ(observed, m.decode_delay_events);
  std::uint64_t hist_total = 0;
  for (const std::uint64_t c : m.decode_delay_hist) hist_total += c;
  EXPECT_EQ(hist_total, m.decode_delay_events);
  // Percentiles are ordered and within the run.
  EXPECT_LE(m.decode_delay_p50, m.decode_delay_p90);
  EXPECT_LE(m.decode_delay_p90, m.decode_delay_max);
  EXPECT_LT(m.decode_delay_max, m.decode_delay_hist.size());
  EXPECT_LE(m.decode_delay_max, rep.rounds);
  // Seeds land in bucket 0: with one-per-node placement the n seeded
  // singletons are decodable before any communication.
  ASSERT_FALSE(m.decode_delay_hist.empty());
  EXPECT_GE(m.decode_delay_hist[0], prob.n);
}

TEST(decoder_matrix, token_forwarding_reports_no_decode_delay) {
  problem prob;
  prob.n = 8;
  prob.k = 8;
  prob.d = 8;
  prob.b = 16;
  session s(prob, protocol_spec{"token-forwarding", {}},
            adversary_spec{"permuted-path", {}}, 3);
  const run_report rep = s.run_to_completion();
  ASSERT_TRUE(rep.complete);
  EXPECT_FALSE(rep.metrics.decode_delay_active);
  EXPECT_EQ(rep.metrics.decode_delay_events, 0u);
}

TEST(decoder_matrix, systematic_first_pass_decodes_earlier_than_dense) {
  // A systematic sender puts uncoded tokens on the air from round one, so
  // more (node, token) pairs decode in the early rounds than under the
  // dense coin (which mixes everything immediately).  Compare the
  // head-of-histogram mass at matched seeds.
  problem prob;
  prob.n = 16;
  prob.k = 16;
  prob.d = 8;
  prob.b = 32;
  std::uint64_t dense_head = 0, sys_head = 0;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    auto head_mass = [&](param_map params) {
      session s(prob, protocol_spec{"rlnc-direct", std::move(params)},
                adversary_spec{"permuted-path", {}}, seed);
      const run_report rep = s.run_to_completion();
      EXPECT_TRUE(rep.complete);
      const auto& hist = rep.metrics.decode_delay_hist;
      std::uint64_t head = 0;
      for (std::size_t b = 0; b < hist.size() && b <= 4; ++b) {
        head += hist[b];
      }
      return head;
    };
    dense_head += head_mass({});
    sys_head += head_mass({{"sched", "systematic"}});
  }
  EXPECT_GT(sys_head, dense_head);
}

// --- golden byte-identity ----------------------------------------------------

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, got);
  std::fclose(f);
  return out;
}

bool has_axis(const std::string& name) {
  for (const char* axis : {"link:", "content:", "sched:", "dec:"}) {
    if (name.find(axis) != std::string::npos) return true;
  }
  return false;
}

// The n16 scenarios with (axes) or without (!axes) a link:, content:,
// sched: or dec: segment.
std::vector<runner::scenario> n16_slice(bool axes) {
  std::vector<runner::scenario> scens;
  for (const runner::scenario& s : runner::scenarios_matching("n16")) {
    if (has_axis(s.name) == axes) scens.push_back(s);
  }
  return scens;
}

// Sweeps `scens` at two seeds on 1, 2, 4 and 8 workers, and compares the
// JSON with the committed golden.
void expect_sweep_matches_golden(const char* golden_name,
                                 const std::vector<runner::scenario>& scens) {
  const std::string golden = read_file(std::string(NCDN_SOURCE_DIR) +
                                       "/tools/ci/" + golden_name);
  ASSERT_FALSE(golden.empty()) << "missing committed golden " << golden_name;
  ASSERT_FALSE(scens.empty());

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    runner::sweep_options opts;
    opts.trials = 2;
    opts.threads = threads;
    const runner::sweep_result result = runner::run_sweep(scens, opts);
    const std::string text = runner::sweep_to_json(result).dump() + "\n";
    EXPECT_EQ(text, golden) << "threads=" << threads;
  }
}

TEST(decoder_matrix, default_sweep_is_byte_identical_to_committed_golden) {
  // The matrix refactor must leave the default-path sweep untouched: the
  // n16 slice minus the link:/content:/sched:/dec: axes dumps bytes equal
  // to the committed golden.
  expect_sweep_matches_golden("golden_sweep_n16.json", n16_slice(false));
}

TEST(decoder_matrix, axis_sweep_is_byte_identical_to_committed_golden) {
  // The axis cells (lossy/delayed links, content epochs, the coding
  // matrix's schedules and strategies, recoding buffers) have their own
  // golden, so a change that moves release and audit builds alike still
  // shows up here.
  expect_sweep_matches_golden("golden_sweep_n16_axes.json", n16_slice(true));
}

TEST(decoder_matrix, gathering_sweep_is_byte_identical_to_committed_golden) {
  // The n32 cells of the flood-then-broadcast machines, among them the only
  // tstable/patch and tstable/patch-gather cells, against their own golden
  // (`sweep --match n32 --filter '^(naive-indexed|greedy-forward|tstable/)'`).
  std::vector<runner::scenario> scens;
  for (const runner::scenario& s : runner::scenarios_matching("n32")) {
    for (const char* alg : {"naive-indexed", "greedy-forward", "tstable/"}) {
      if (s.name.starts_with(alg)) scens.push_back(s);
    }
  }
  expect_sweep_matches_golden("golden_sweep_n32_gather.json", scens);
}

}  // namespace
}  // namespace ncdn
