// Coding-backend tests (PR3): the dense/sparse/generation backends behind
// rlnc_session and the rlnc-direct/rlnc-sparse/rlnc-gen registry entries.
//
// Three layers of guarantees:
//   * unit: each backend decodes correct payloads and counts its
//     elimination work; generation coding honours the band structure;
//   * bit-identity: the dense path is draw-for-draw identical to the
//     pre-backend implementation (golden numbers captured before the
//     refactor) and to an explicitly-passed dense matrix cell;
//   * property: sparse/generation complete on all six legacy topologies
//     and pay for their cheaper elimination with rounds >= the dense
//     baseline (the Firooz & Roy density/delay trade-off direction).
#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>

#include "coding/matrix.hpp"
#include "core/session.hpp"
#include "protocols/rlnc_broadcast.hpp"

namespace ncdn {
namespace {

// --- unit: backends through rlnc_session ------------------------------------

std::vector<bitvec> seed_all(rlnc_session& s, std::size_t n, std::size_t k,
                             std::size_t d, rng& r) {
  std::vector<bitvec> payloads;
  for (std::size_t i = 0; i < k; ++i) {
    bitvec p(d);
    p.randomize(r);
    payloads.push_back(p);
    s.seed(static_cast<node_id>(i % n), i, p);
  }
  return payloads;
}

struct backend_case {
  const char* label;
  std::unique_ptr<coding_backend> (*make)();
};

std::unique_ptr<coding_backend> make_dense() {
  return make_matrix_backend(matrix_spec{});
}
std::unique_ptr<coding_backend> make_sparse02() {
  return make_matrix_backend({.sched = "sparse", .rho = 0.2});
}
std::unique_ptr<coding_backend> make_gen41() {
  return make_matrix_backend(
      {.dec = "banded", .gen_size = 4, .band_overlap = 1});
}
std::unique_ptr<coding_backend> make_gen30() {
  return make_matrix_backend({.dec = "banded", .gen_size = 3});
}

class backend_suite : public ::testing::TestWithParam<backend_case> {};

TEST_P(backend_suite, decodes_true_payloads_on_a_dynamic_network) {
  const std::size_t n = 10, k = 10, d = 24;
  rng r(101);
  auto adv = make_permuted_path(n, 103);
  network net(n, k + d, *adv, 107);
  rlnc_session s(n, k, d, GetParam().make());
  const std::vector<bitvec> payloads = seed_all(s, n, k, d, r);

  const round_t used =
      run_rounds(s.run_stepped(net, 200 * (n + k), /*stop_early=*/true));
  ASSERT_TRUE(s.all_complete()) << GetParam().label;
  EXPECT_GT(used, 0u);
  for (node_id u = 0; u < n; ++u) {
    EXPECT_EQ(s.knowledge(u), k);
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_TRUE(s.can_decode(u, i));
      EXPECT_EQ(s.decode(u, i), payloads[i]) << GetParam().label;
    }
  }
  // Wire format is backend-independent: full-width k+d-bit rows.
  EXPECT_EQ(net.max_observed_message_bits(), k + d);
  // Elimination work was performed and counted.
  EXPECT_GT(s.xor_word_ops(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    backends, backend_suite,
    ::testing::Values(backend_case{"dense", &make_dense},
                      backend_case{"sparse_rho02", &make_sparse02},
                      backend_case{"gen4_band1", &make_gen41},
                      backend_case{"gen3_disjoint", &make_gen30}),
    [](const ::testing::TestParamInfo<backend_case>& param_info) {
      return param_info.param.label;
    });

TEST_P(backend_suite, seeded_tokens_decode_before_completion) {
  // The node_coder contract: decode(i) requires can_decode(i), not full
  // completeness — a freshly seeded singleton is decodable immediately on
  // every backend.
  const std::size_t n = 4, k = 6, d = 16;
  rng r(401);
  bitvec p(d);
  p.randomize(r);
  rlnc_session s(n, k, d, GetParam().make());
  s.seed(0, 2, p);
  ASSERT_FALSE(s.node_complete(0));
  ASSERT_TRUE(s.can_decode(0, 2)) << GetParam().label;
  EXPECT_EQ(s.decode(0, 2), p) << GetParam().label;
  EXPECT_FALSE(s.can_decode(0, 3));
}

TEST(generation_backend, knowledge_is_decodable_count_and_monotone) {
  const std::size_t n = 8, k = 12, d = 16;
  rng r(211);
  auto adv = make_permuted_path(n, 223);
  network net(n, k + d, *adv, 227);
  rlnc_session s(n, k, d,
                 make_matrix_backend(
                     {.dec = "banded", .gen_size = 4, .band_overlap = 2}));
  seed_all(s, n, k, d, r);
  // Seeded singletons are immediately decodable.
  EXPECT_GE(s.knowledge(0), 1u);
  std::vector<std::size_t> last(n, 0);
  for (round_t step = 0; step < 400 && !s.all_complete(); ++step) {
    run_rounds(s.run_stepped(net, 1, /*stop_early=*/false));
    for (node_id u = 0; u < n; ++u) {
      const std::size_t now = s.knowledge(u);
      EXPECT_GE(now, last[u]) << "decodable count regressed at node " << u;
      EXPECT_LE(now, k);
      last[u] = now;
    }
  }
  ASSERT_TRUE(s.all_complete());
  for (node_id u = 0; u < n; ++u) EXPECT_EQ(s.knowledge(u), k);
}

TEST(generation_backend, decode_progress_is_uniform_across_backends) {
  // The old dense_decoder() escape hatch is gone: every backend answers
  // decode_progress() directly, and it always equals the number of
  // can_decode(i) == true tokens — no null checks, no backend gating.
  rng r(97);
  bitvec p(8);
  p.randomize(r);
  auto check = [&](std::unique_ptr<coding_backend> b) {
    rlnc_session s(4, 4, 8, std::move(b));
    EXPECT_EQ(s.decode_progress(0), 0u);
    s.seed(0, 1, p);
    std::size_t decodable = 0;
    for (std::size_t i = 0; i < 4; ++i) decodable += s.can_decode(0, i);
    EXPECT_EQ(s.decode_progress(0), decodable);
    EXPECT_EQ(s.decode_progress(0), 1u);  // one seeded singleton
  };
  check(make_dense());
  check(make_matrix_backend({.sched = "sparse", .rho = 0.3}));
  check(make_matrix_backend(
      {.dec = "banded", .gen_size = 2, .band_overlap = 1}));
}

TEST(generation_backend, every_decodable_token_decodes_from_either_window) {
  // decode(i) looks for token i's singleton row in the at most two windows
  // holding it: its home generation's and, inside the band overlap, the
  // previous one's.  g = 4, w = 2 gives windows [0, 6), [4, 10), [8, 12).
  const std::size_t k = 12, d = 24;
  rng r(613);
  std::vector<bitvec> payloads;
  for (std::size_t i = 0; i < k; ++i) {
    bitvec p(d);
    p.randomize(r);
    payloads.push_back(p);
  }
  // The wire row of the sum of `tokens`.
  const auto wire = [&](std::initializer_list<std::size_t> tokens) {
    bitvec row(k + d);
    for (const std::size_t t : tokens) {
      bitvec one(k + d);
      one.set(t);
      one.copy_bits_from(payloads[t], 0, d, k);
      row.xor_with(one);
    }
    return row;
  };
  const auto expect_decodes = [&](const node_coder& coder) {
    for (std::size_t i = 0; i < k; ++i) {
      if (coder.can_decode(i)) {
        EXPECT_EQ(coder.decode(i), payloads[i]) << "token " << i;
      }
    }
  };
  for (const char* dec : {"banded", "rref"}) {
    SCOPED_TRACE(dec);
    const auto backend = make_matrix_backend(
        {.dec = dec, .gen_size = 4, .band_overlap = 2});
    auto coder = backend->make_node_coder(k, d);
    // Token 4's home is generation 1, but these rows reach generation 0
    // alone: its singleton exists only in the overlap of window 0.
    coder->insert(wire({0, 4}));
    coder->insert(wire({0}));
    // Token 9 sits in window 1's overlap too, but these rows reach
    // generation 2 alone; token 8 reaches both windows.
    coder->insert(wire({9, 11}));
    coder->insert(wire({11}));
    coder->insert(wire({8}));
    coder->insert(wire({1, 2}));  // no singleton
    for (std::size_t i = 0; i < k; ++i) {
      const bool want = i == 0 || i == 4 || i == 8 || i == 9 || i == 11;
      EXPECT_EQ(coder->can_decode(i), want) << "token " << i;
    }
    EXPECT_EQ(coder->rank(), 5u);
    expect_decodes(*coder);
    // Random sums inside one window at a time, checked after every insert,
    // until every token decodes.
    for (std::size_t step = 0; step < 400 && !coder->complete(); ++step) {
      const std::size_t start = 4 * r.below(3);
      bitvec row(k + d);
      for (std::size_t t = start; t < std::min(start + 6, k); ++t) {
        if (r.coin()) row.xor_with(wire({t}));
      }
      coder->insert(row);
      expect_decodes(*coder);
    }
    EXPECT_TRUE(coder->complete());
  }
}

// --- bit-identity: dense must not move --------------------------------------

TEST(dense_bit_identity, explicit_dense_backend_equals_default_ctor) {
  const std::size_t n = 12, k = 12, d = 16;
  auto run_one = [&](bool explicit_backend) {
    rng r(301);
    auto adv = make_permuted_path(n, 307);
    network net(n, k + d, *adv, 311);
    rlnc_session s = explicit_backend
                         ? rlnc_session(n, k, d, make_dense())
                         : rlnc_session(n, k, d);
    seed_all(s, n, k, d, r);
    const round_t used = run_rounds(s.run_stepped(net, 20 * (n + k), true));
    std::vector<std::uint64_t> sig{used, s.xor_word_ops()};
    for (node_id u = 0; u < n; ++u) {
      sig.push_back(s.decode_progress(u));
      for (std::size_t i = 0; i < k; ++i) sig.push_back(s.decode(u, i).hash());
    }
    return sig;
  };
  EXPECT_EQ(run_one(false), run_one(true));
}

TEST(dense_bit_identity, golden_run_reports_match_pre_backend_capture) {
  // Captured from the pre-refactor build (PR2 head) via
  //   ncdn-run run --alg rlnc-direct --topo permuted-path --seed 42
  //   ncdn-run run --alg rlnc-direct --topo sorted-path --seed 7
  //            --param n=24 --param k=24
  // The backend refactor must not perturb the dense draw sequence, so
  // these numbers are frozen.
  problem prob;
  prob.n = 16;
  prob.k = 16;
  prob.d = 8;
  prob.b = 32;
  {
    session s(prob, protocol_spec{"rlnc-direct", {}},
              adversary_spec{"permuted-path", {}}, 42);
    const run_report rep = s.run_to_completion();
    EXPECT_TRUE(rep.complete);
    EXPECT_EQ(rep.rounds, 13u);
    EXPECT_EQ(rep.metrics.observed_completion_round, 13u);
    EXPECT_EQ(rep.metrics.total_messages, 208u);
    EXPECT_EQ(rep.metrics.total_message_bits, 16u * 13 * 24);  // 4992
  }
  {
    session s(prob, protocol_spec{"rlnc-direct", {{"n", "24"}, {"k", "24"}}},
              adversary_spec{"sorted-path", {}}, 7);
    const run_report rep = s.run_to_completion();
    EXPECT_TRUE(rep.complete);
    EXPECT_EQ(rep.rounds, 38u);
    EXPECT_EQ(rep.metrics.total_messages, 912u);
    EXPECT_EQ(rep.metrics.total_message_bits, 29184u);
  }
}

// --- registry entries --------------------------------------------------------

TEST(backend_registry, new_entries_exist_and_validate_params) {
  EXPECT_NE(protocol_registry::instance().find("rlnc-sparse"), nullptr);
  EXPECT_NE(protocol_registry::instance().find("rlnc-gen"), nullptr);

  problem prob;
  prob.n = 8;
  prob.k = 8;
  prob.d = 8;
  prob.b = 32;
  // Malformed backend params are user errors, reported as such.
  for (const param_map& bad :
       {param_map{{"rho", "0"}}, param_map{{"rho", "1.5"}},
        param_map{{"rho", "-0.2"}}}) {
    EXPECT_THROW(session(prob, protocol_spec{"rlnc-sparse", bad},
                         adversary_spec{"permuted-path", {}}, 1),
                 std::invalid_argument)
        << bad.begin()->second;
  }
  EXPECT_THROW(session(prob, protocol_spec{"rlnc-gen", {{"gen_size", "0"}}},
                       adversary_spec{"permuted-path", {}}, 1),
               std::invalid_argument);
  EXPECT_THROW(
      session(prob,
              protocol_spec{"rlnc-gen",
                            {{"gen_size", "4"}, {"band_overlap", "5"}}},
              adversary_spec{"permuted-path", {}}, 1),
      std::invalid_argument);
  // b too small for k+d-bit coded messages (2b < k + d): same gate as
  // rlnc-direct.
  const param_map tight{{"b", "8"}, {"k", "16"}};
  EXPECT_THROW(session(prob, protocol_spec{"rlnc-sparse", tight},
                       adversary_spec{"permuted-path", tight}, 1),
               std::invalid_argument);
  // Every entry with a Las-Vegas cap rejects a negative cap_factor, and a
  // huge one saturates the cap (no out-of-range cast): the run is the
  // default's.
  for (const char* alg :
       {"rlnc-direct", "rlnc-sparse", "rlnc-gen", "centralized-rlnc"}) {
    EXPECT_THROW(session(prob, protocol_spec{alg, {{"cap_factor", "-1"}}},
                         adversary_spec{"permuted-path", {}}, 1),
                 std::invalid_argument)
        << alg;
    session dflt(prob, protocol_spec{alg, {}},
                 adversary_spec{"permuted-path", {}}, 1);
    session huge(prob, protocol_spec{alg, {{"cap_factor", "1e300"}}},
                 adversary_spec{"permuted-path", {}}, 1);
    const run_report a = dflt.run_to_completion();
    const run_report b = huge.run_to_completion();
    EXPECT_TRUE(a.complete) << alg;
    EXPECT_EQ(b.complete, a.complete) << alg;
    EXPECT_EQ(b.rounds, a.rounds) << alg;
    EXPECT_EQ(b.metrics.total_message_bits, a.metrics.total_message_bits)
        << alg;
    EXPECT_EQ(b.metrics.total_elimination_xors,
              a.metrics.total_elimination_xors)
        << alg;
  }
}

TEST(backend_registry, gen_size_past_k_is_the_one_generation_layout) {
  // gen_size and band_overlap clamp to k, so sizes near 2^64 cannot wrap
  // the window arithmetic or the round cap: they run exactly like the
  // one-generation layout gen_size=k.
  problem prob;
  prob.n = 16;
  prob.k = 16;
  prob.d = 8;
  prob.b = 32;
  const char* const top = "18446744073709551615";
  auto run = [&](param_map params) {
    session s(prob, protocol_spec{"rlnc-gen", std::move(params)},
              adversary_spec{"permuted-path", {}}, 1);
    return s.run_to_completion();
  };
  auto expect_same = [&](const run_report& huge, const run_report& want) {
    EXPECT_TRUE(huge.complete);
    EXPECT_EQ(huge.rounds, want.rounds);
    EXPECT_EQ(huge.metrics.final_min_knowledge, prob.k);
    EXPECT_EQ(huge.metrics.total_elimination_xors,
              want.metrics.total_elimination_xors);
  };
  const run_report want = run({{"gen_size", "16"}});
  ASSERT_TRUE(want.complete);
  expect_same(run({{"gen_size", top}}), want);
  expect_same(run({{"gen_size", top}, {"band_overlap", top}}),
              run({{"gen_size", "16"}, {"band_overlap", "16"}}));
}

TEST(backend_registry, session_reports_per_round_elimination_xors) {
  // Every coded engine runs Gaussian elimination, so every one reports it:
  // the standalone broadcast, the centralized genie and the chunked and
  // patch T-stable sessions (each at a window its sizing fits).
  const protocol_spec protocols[] = {
      {"rlnc-direct", {}},
      {"centralized-rlnc", {}},
      {"tstable/chunked", {{"t_stability", "4"}}},
      {"tstable/patch", {{"t_stability", "256"}}},
  };
  problem prob;
  prob.n = 8;
  prob.k = 8;
  prob.d = 8;
  prob.b = 32;
  for (const protocol_spec& proto : protocols) {
    session s(prob, proto, adversary_spec{"permuted-path", proto.params}, 9);
    std::uint64_t observed_total = 0;
    s.set_observer([&](const round_metrics& m) {
      observed_total += m.elimination_xors;
    });
    const run_report rep = s.run_to_completion();
    ASSERT_TRUE(rep.complete) << proto.name;
    EXPECT_GT(rep.metrics.total_elimination_xors, 0u) << proto.name;
    EXPECT_EQ(observed_total, rep.metrics.total_elimination_xors) << proto.name;
  }
}

// --- property: completion everywhere, rounds >= dense ------------------------

struct trade_off_case {
  const char* alg;
  param_map params;
};

TEST(backend_property,
     backends_complete_on_all_six_topologies_and_trade_rounds) {
  const char* topologies[] = {"static-path",      "static-star",
                              "permuted-path",    "random-connected",
                              "random-geometric", "sorted-path"};
  const trade_off_case cases[] = {
      {"rlnc-sparse", {{"rho", "0.15"}}},
      {"rlnc-gen", {{"gen_size", "3"}, {"band_overlap", "1"}}},
  };
  problem prob;
  prob.n = 8;
  prob.k = 8;
  prob.d = 8;
  prob.b = 32;
  const std::uint64_t seeds[] = {1, 2, 3};

  for (const char* topo : topologies) {
    std::uint64_t dense_rounds = 0;
    std::uint64_t dense_xors = 0;
    for (const std::uint64_t seed : seeds) {
      session s(prob, protocol_spec{"rlnc-direct", {}},
                adversary_spec{topo, {}}, seed);
      const run_report rep = s.run_to_completion();
      ASSERT_TRUE(rep.complete) << "rlnc-direct on " << topo;
      dense_rounds += rep.metrics.observed_completion_round;
      dense_xors += rep.metrics.total_elimination_xors;
    }
    for (const trade_off_case& c : cases) {
      std::uint64_t rounds = 0;
      std::uint64_t xors = 0;
      for (const std::uint64_t seed : seeds) {
        session s(prob, protocol_spec{c.alg, c.params},
                  adversary_spec{topo, {}}, seed);
        const run_report rep = s.run_to_completion();
        ASSERT_TRUE(rep.complete) << c.alg << " on " << topo;
        EXPECT_EQ(rep.metrics.final_min_knowledge, prob.k);
        rounds += rep.metrics.observed_completion_round;
        xors += rep.metrics.total_elimination_xors;
      }
      // The trade-off direction (aggregated over seeds so a lucky draw
      // cannot flip it): cheaper elimination costs rounds.
      EXPECT_GE(rounds, dense_rounds) << c.alg << " on " << topo;
      EXPECT_GT(xors, 0u);
    }
  }
}

}  // namespace
}  // namespace ncdn
