// Encoder-schedule x decoder-strategy matrix tests (PR10).
//
// Four layers of guarantees:
//   * equivalence: the banded-pivot eliminator and the generic grouped
//     rref are the same code on the wire — identical draws, rounds, and
//     decodes over several seeds — and differ only in elimination cost
//     (banded XORs strictly fewer words);
//   * byte-identity: the default-path sweep (no link:/content:/sched:/dec:
//     cells) dumps bytes equal to the committed golden for every
//     threads x batch combination;
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
  sig.rounds = s.run(net, 400 * (n + k), /*stop_early=*/true);
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

TEST(decoder_matrix, default_sweep_is_byte_identical_to_committed_golden) {
  // The matrix refactor must leave the default-path sweep untouched: the
  // n16 slice minus the link:/content:/sched:/dec: axes dumps bytes equal
  // to the committed golden, for every threads x batch engine shape.
  const std::string golden =
      read_file(std::string(NCDN_SOURCE_DIR) + "/tools/ci/golden_sweep_n16.json");
  ASSERT_FALSE(golden.empty()) << "missing committed golden fixture";

  std::vector<runner::scenario> scens;
  for (const runner::scenario& s : runner::scenarios_matching("n16")) {
    if (s.name.find("link:") != std::string::npos) continue;
    if (s.name.find("content:") != std::string::npos) continue;
    if (s.name.find("sched:") != std::string::npos) continue;
    if (s.name.find("dec:") != std::string::npos) continue;
    scens.push_back(s);
  }
  ASSERT_FALSE(scens.empty());

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{32}}) {
      runner::sweep_options opts;
      opts.trials = 2;
      opts.threads = threads;
      opts.batch = batch;
      const runner::sweep_result result = runner::run_sweep(scens, opts);
      const std::string text =
          runner::sweep_to_json(result).dump() + "\n";
      EXPECT_EQ(text, golden)
          << "threads=" << threads << " batch=" << batch;
    }
  }
}

}  // namespace
}  // namespace ncdn
