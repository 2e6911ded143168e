// T-stable machinery tests (S14/S15, paper §8): patch plans, the chunked
// meta-round session, the full patch-sharing session, and the composed
// T-stable dissemination.
#include <gtest/gtest.h>

#include "core/session.hpp"
#include "protocols/tstable_dissemination.hpp"
#include "protocols/tstable_patch.hpp"

namespace ncdn {
namespace {

TEST(patch_plan, vector_fits_t_vec_rounds) {
  for (std::size_t n : {16u, 64u, 256u}) {
    for (std::size_t b : {16u, 64u}) {
      for (round_t t : {8u, 64u, 256u, 1024u}) {
        const patch_plan p = plan_patch_broadcast(n, b, t);
        EXPECT_LE(p.items + p.item_bits,
                  b * static_cast<std::size_t>(p.t_vec));
        if (p.feasible) {
          EXPECT_LE(p.patch_rounds + p.cycle_rounds, t);
          EXPECT_GE(p.d_patch, 1u);
        }
      }
    }
  }
}

TEST(patch_plan, small_windows_are_infeasible_large_ones_feasible) {
  EXPECT_FALSE(plan_patch_broadcast(256, 32, 4).feasible);
  EXPECT_TRUE(plan_patch_broadcast(256, 32, 512).feasible);
  // Patch radius grows with T (the D = Theta(T / log n) scaling).
  const auto p1 = plan_patch_broadcast(256, 32, 256);
  const auto p2 = plan_patch_broadcast(256, 32, 2048);
  ASSERT_TRUE(p1.feasible && p2.feasible);
  EXPECT_GT(p2.d_patch, p1.d_patch);
}

TEST(patch_plan, engines_fit_only_below_2_32_items) {
  // At T = 2^32 and b = 32 the patch plan is feasible and its sizes fit
  // 64 bits, but it has 2^33 items: more than the coders' 32-bit pivots
  // index, in rows of 2^34 bits.
  const round_t t = round_t{1} << 32;
  const patch_plan plan = plan_patch_broadcast(16, 32, t);
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.items, std::size_t{1} << 33);
  for (const tstable_engine e :
       {tstable_engine::patch, tstable_engine::patch_gather,
        tstable_engine::chunked}) {
    EXPECT_FALSE(tstable_engine_fits(e, 16, 32, t, 8));
  }
  EXPECT_TRUE(tstable_engine_fits(tstable_engine::auto_select, 16, 32, t, 8));
  // 2^32 - 16 items stay under the pivot indices, but each vector is
  // 2^33 - 32 bits wide (rows of 1 GiB at every node), so they do not fit
  // either: the bound that binds first is one vector's width.
  const round_t under = (round_t{1} << 31) - 8;
  ASSERT_EQ(plan_patch_broadcast(16, 32, under).items,
            (std::size_t{1} << 32) - 16);
  EXPECT_FALSE(tstable_engine_fits(tstable_engine::patch, 16, 32, under, 8));
  ASSERT_EQ(plan_patch_broadcast(16, 32, round_t{1} << 31).items,
            std::size_t{1} << 32);
  EXPECT_FALSE(
      tstable_engine_fits(tstable_engine::patch, 16, 32, round_t{1} << 31, 8));
  // A vector is b * t_vec bits, with t_vec = T / 8 for patch and T / 2 for
  // chunked: both engines fit up to tstable_max_vector_bits and not past.
  const round_t widest = tstable_max_vector_bits / 32;  // t_vec at b = 32
  EXPECT_TRUE(
      tstable_engine_fits(tstable_engine::patch, 16, 32, 8 * widest, 8));
  EXPECT_FALSE(
      tstable_engine_fits(tstable_engine::patch, 16, 32, 8 * widest + 8, 8));
  EXPECT_TRUE(
      tstable_engine_fits(tstable_engine::chunked, 16, 32, 2 * widest, 8));
  EXPECT_FALSE(
      tstable_engine_fits(tstable_engine::chunked, 16, 32, 2 * widest + 2, 8));
}

TEST(chunked_meta, decodes_on_t_stable_network) {
  const std::size_t n = 16, b = 16;
  for (round_t t : {1u, 2u, 8u, 16u}) {
    auto adv = make_t_stable(make_permuted_path(n, 5), t);
    network net(n, b, *adv, 7);
    chunked_meta_session s(n, b, t);
    rng r(9);
    std::vector<bitvec> payloads;
    for (std::size_t i = 0; i < s.items(); ++i) {
      bitvec p(s.item_bits());
      p.randomize(r);
      payloads.push_back(p);
      s.seed(static_cast<node_id>(i % n), i, p);
    }
    const round_t cap = 400 * (n + s.items()) * t;
    run_rounds(s.run_stepped(net, cap, true));
    ASSERT_TRUE(s.all_complete()) << "T=" << t;
    for (node_id u = 0; u < n; ++u) {
      for (std::size_t i = 0; i < s.items(); ++i) {
        EXPECT_EQ(s.decode(u, i), payloads[i]);
      }
    }
  }
}

TEST(chunked_meta, items_cap_shrinks_coefficients) {
  chunked_meta_session s(8, 32, 8, 3);
  EXPECT_EQ(s.items(), 3u);
}

TEST(tstable_patch_session, decodes_on_stable_network) {
  // Full §8 machinery on a T-stable random graph; T large enough for the
  // plan to be feasible at this n.
  const std::size_t n = 32, b = 16;
  const round_t t = 256;
  const patch_plan plan = plan_patch_broadcast(n, b, t);
  ASSERT_TRUE(plan.feasible);
  auto adv = make_t_stable(make_random_connected(n, n, 11), t);
  network net(n, b, *adv, 13);
  tstable_patch_session s(plan);
  rng r(17);
  std::vector<bitvec> payloads;
  for (std::size_t i = 0; i < plan.items; ++i) {
    bitvec p(plan.item_bits);
    p.randomize(r);
    payloads.push_back(p);
    s.seed(static_cast<node_id>(i % n), i, p);
  }
  const round_t cap = 2000 * t;
  run_rounds(s.run_stepped(net, cap, true));
  ASSERT_TRUE(s.all_complete())
      << "windows=" << s.windows_run()
      << " failures=" << s.patching_failures();
  for (node_id u = 0; u < n; ++u) {
    for (std::size_t i = 0; i < plan.items; ++i) {
      EXPECT_EQ(s.decode(u, i), payloads[i]);
    }
  }
}

TEST(tstable_patch_session, single_source_static_graph) {
  const std::size_t n = 24, b = 16;
  const round_t t = 192;
  patch_plan plan = plan_patch_broadcast(n, b, t);
  ASSERT_TRUE(plan.feasible);
  plan.items = 8;  // capped item count (tail-epoch shape)
  static_adversary adv(gen::grid(6, 4));
  network net(n, b, adv, 19);
  tstable_patch_session s(plan);
  rng r(23);
  std::vector<bitvec> payloads;
  for (std::size_t i = 0; i < plan.items; ++i) {
    bitvec p(plan.item_bits);
    p.randomize(r);
    payloads.push_back(p);
    s.seed(0, i, p);
  }
  run_rounds(s.run_stepped(net, 2000 * t, true));
  ASSERT_TRUE(s.all_complete());
  for (node_id u = 0; u < n; ++u) {
    for (std::size_t i = 0; i < plan.items; ++i) {
      EXPECT_EQ(s.decode(u, i), payloads[i]);
    }
  }
}

struct tstable_case {
  std::size_t n, k, d, b;
  round_t t;
  tstable_engine engine;
};

class tstable_dissem_suite : public ::testing::TestWithParam<tstable_case> {};

TEST_P(tstable_dissem_suite, disseminates_everything) {
  const tstable_case c = GetParam();
  rng r(100 + c.n + static_cast<std::size_t>(c.t));
  const auto dist =
      make_distribution(c.n, c.k, c.d, placement::one_per_node, r);
  auto adv = make_t_stable(make_permuted_path(c.n, 29), c.t);
  network net(c.n, c.b, *adv, 31);
  token_state st(dist);
  tstable_config cfg;
  cfg.b_bits = c.b;
  cfg.t_stability = c.t;
  cfg.engine = c.engine;
  const tstable_result res = run_rounds(tstable_machine(net, st, cfg));
  EXPECT_TRUE(res.complete) << "engine=" << static_cast<int>(res.engine_used)
                            << " epochs=" << res.epochs;
}

INSTANTIATE_TEST_SUITE_P(
    sweeps, tstable_dissem_suite,
    ::testing::Values(
        tstable_case{16, 16, 8, 16, 1, tstable_engine::auto_select},
        tstable_case{16, 16, 8, 16, 4, tstable_engine::chunked},
        tstable_case{16, 16, 8, 16, 16, tstable_engine::chunked},
        tstable_case{24, 24, 8, 16, 8, tstable_engine::auto_select},
        tstable_case{16, 16, 8, 16, 2, tstable_engine::plain},
        tstable_case{24, 24, 8, 16, 192, tstable_engine::patch},
        tstable_case{32, 32, 8, 16, 256, tstable_engine::auto_select}));

TEST(tstable_dissemination, patch_gather_disseminates_everything) {
  // §8.3 mode B: in-patch pipelined gathering at a large T.
  const std::size_t n = 32, k = 32, d = 8, b = 16;
  const round_t t = 256;
  for (std::uint64_t seed : {1ull, 2ull}) {
    rng r(seed);
    const auto dist = make_distribution(n, k, d, placement::one_per_node, r);
    auto adv = make_t_stable(make_permuted_path(n, seed + 3), t);
    network net(n, b, *adv, seed + 7);
    token_state st(dist);
    tstable_config cfg;
    cfg.b_bits = b;
    cfg.t_stability = t;
    cfg.engine = tstable_engine::patch_gather;
    const tstable_result res = run_rounds(tstable_machine(net, st, cfg));
    EXPECT_TRUE(res.complete) << "seed " << seed;
    EXPECT_EQ(res.engine_used, tstable_engine::patch_gather);
    for (node_id u = 0; u < n; ++u) EXPECT_EQ(st.known_count(u), k);
  }
}

TEST(tstable_dissemination, patch_gather_on_random_topology) {
  const std::size_t n = 24, k = 24, d = 8, b = 16;
  const round_t t = 224;
  rng r(9);
  const auto dist = make_distribution(n, k, d, placement::random_spread, r);
  auto adv = make_t_stable(make_random_connected(n, n / 2, 11), t);
  network net(n, b, *adv, 13);
  token_state st(dist);
  tstable_config cfg;
  cfg.b_bits = b;
  cfg.t_stability = t;
  cfg.engine = tstable_engine::patch_gather;
  const tstable_result res = run_rounds(tstable_machine(net, st, cfg));
  EXPECT_TRUE(res.complete);
}

TEST(build_patches_distributed, produces_valid_structure) {
  const std::size_t n = 48, b = 16;
  const round_t t = 256;
  const patch_plan plan = plan_patch_broadcast(n, b, t);
  ASSERT_TRUE(plan.feasible);
  const graph g = gen::grid(8, 6);
  static_adversary adv(g);
  network net(n, b, adv, 17);
  built_patches bp;
  ASSERT_TRUE(run_rounds(build_patches_machine(net, plan, bp)));
  EXPECT_EQ(net.rounds_elapsed(), plan.patch_rounds);
  // Every node assigned, within D of its leader, parents consistent and
  // joined to their children by graph edges.
  std::size_t leaders = 0;
  for (node_id u = 0; u < n; ++u) {
    EXPECT_TRUE(bp.assigned[u]);
    EXPECT_LE(bp.depth[u], plan.d_patch);
    if (bp.is_leader[u]) {
      ++leaders;
      EXPECT_EQ(bp.parent[u], u);
      EXPECT_EQ(bp.leader_of[u], u);
      EXPECT_EQ(bp.depth[u], 0u);
    } else {
      EXPECT_NE(bp.parent[u], u);
      EXPECT_TRUE(g.has_edge(u, bp.parent[u]));
      EXPECT_EQ(bp.leader_of[bp.parent[u]], bp.leader_of[u]);
      EXPECT_EQ(bp.depth[bp.parent[u]] + 1, bp.depth[u]);
      const auto& kids = bp.children[bp.parent[u]];
      EXPECT_TRUE(std::binary_search(kids.begin(), kids.end(), u));
    }
  }
  EXPECT_GE(leaders, 1u);
  // The leaders are a maximal independent set of G^D (§8.1): no two are
  // within D hops, and every other node has a leader within D hops.
  const graph gd = g.power(plan.d_patch);
  for (node_id u = 0; u < n; ++u) {
    bool leader_adjacent = false;
    for (const node_id v : gd.neighbors(u)) {
      if (bp.is_leader[v]) leader_adjacent = true;
    }
    if (bp.is_leader[u]) {
      EXPECT_FALSE(leader_adjacent) << "leaders " << u << " not independent";
    } else {
      EXPECT_TRUE(leader_adjacent) << "node " << u << " not dominated";
    }
  }
}

TEST(tstable_dissemination, chunked_beats_plain_at_larger_t) {
  // The factor-T idea: at T = 16 the chunked engine should need far fewer
  // rounds than the T-oblivious plain engine on the same instance.
  const std::size_t n = 32, k = 32, d = 8, b = 16;
  const round_t t = 16;
  round_t rounds_plain = 0, rounds_chunked = 0;
  for (int which = 0; which < 2; ++which) {
    rng r(41);
    const auto dist = make_distribution(n, k, d, placement::one_per_node, r);
    auto adv = make_t_stable(make_permuted_path(n, 43), t);
    network net(n, b, *adv, 47);
    token_state st(dist);
    tstable_config cfg;
    cfg.b_bits = b;
    cfg.t_stability = t;
    cfg.engine = which == 0 ? tstable_engine::plain : tstable_engine::chunked;
    const tstable_result res = run_rounds(tstable_machine(net, st, cfg));
    ASSERT_TRUE(res.complete);
    (which == 0 ? rounds_plain : rounds_chunked) = res.rounds;
  }
  EXPECT_LT(rounds_chunked, rounds_plain);
}

TEST(tstable_dissemination, session_counts_the_last_exchange_decodes) {
  // A tstable/chunked cell that needs one broadcast epoch (then an empty
  // flood ends the run): every node decodes every block, and the session
  // must count all n x blocks (node, block) pairs, the ones the last
  // exchange decodes included.
  problem prob;
  prob.n = 16;
  prob.k = 16;
  prob.d = 8;
  prob.b = 32;
  prob.t_stability = 4;
  prob.place = placement::one_per_node;
  session s(prob, protocol_spec{"tstable/chunked", {}},
            adversary_spec{"static-clique", {}}, 1);
  const run_report& rep = s.run_to_completion();
  ASSERT_TRUE(rep.complete);
  ASSERT_EQ(rep.epochs, 2u);
  const chunked_plan plan = plan_chunked_broadcast(prob.b, prob.t_stability);
  const std::size_t per_block = plan.item_bits / prob.d;
  const std::size_t blocks = (prob.k + per_block - 1) / per_block;
  EXPECT_EQ(blocks, 4u);
  EXPECT_EQ(rep.metrics.decode_delay_events, prob.n * blocks);
}

}  // namespace
}  // namespace ncdn
