// T-interval connectivity (the Kuhn et al. stability notion; paper §9 asks
// about extending the coding algorithms to it): within each T-round window
// a spanning tree persists while other edges churn every round.  The
// chunked meta-round session must survive it by discarding
// partially-received vectors from churning edges.
#include <gtest/gtest.h>

#include "protocols/flooding.hpp"
#include "protocols/greedy_forward.hpp"
#include "protocols/tstable_patch.hpp"

namespace ncdn {
namespace {

TEST(t_interval_adversary, tree_edges_persist_within_window) {
  t_interval_adversary adv(20, 8, 0, 7);  // extra_edges = 0: pure tree
  opaque_view view(20);
  // Collect the edge set at each round of one window.
  auto edges_of = [](const graph& g) {
    std::set<std::pair<node_id, node_id>> out;
    for (node_id u = 0; u < g.order(); ++u) {
      for (node_id v : g.neighbors(u)) {
        out.insert({std::min(u, v), std::max(u, v)});
      }
    }
    return out;
  };
  const auto first = edges_of(adv.topology(0, view));
  EXPECT_EQ(first.size(), 19u);  // spanning tree
  for (round_t r = 1; r < 8; ++r) {
    EXPECT_EQ(edges_of(adv.topology(r, view)), first);
  }
  const auto next_window = edges_of(adv.topology(8, view));
  EXPECT_NE(next_window, first);  // fresh tree (overwhelmingly likely)
}

TEST(t_interval_adversary, always_connected_with_churn) {
  t_interval_adversary adv(24, 4, 10, 11);
  opaque_view view(24);
  for (round_t r = 0; r < 40; ++r) {
    EXPECT_TRUE(adv.topology(r, view).is_connected());
  }
}

TEST(t_interval_adversary, churn_edges_change_within_window) {
  t_interval_adversary adv(24, 8, 12, 13);
  opaque_view view(24);
  const graph& g0 = adv.topology(0, view);
  const std::size_t e0 = g0.edge_count();
  const graph& g1 = adv.topology(1, view);
  // Same tree, different extras: edge sets differ (whp) but both contain
  // at least the 23 tree edges.
  EXPECT_GE(e0, 23u);
  EXPECT_GE(g1.edge_count(), 23u);
}

TEST(chunked_meta, decodes_under_t_interval_connectivity) {
  // Only the spanning tree is stable; every other edge churns each round.
  // Partial vectors must be discarded, complete ones (via tree neighbours)
  // still flow — the session decodes everywhere.
  const std::size_t n = 16, b = 16;
  for (round_t t : {2u, 4u, 8u}) {
    auto adv = make_t_interval(n, t, n / 2, 17);
    network net(n, b, *adv, 19);
    chunked_meta_session s(n, b, t);
    rng r(23);
    std::vector<bitvec> payloads;
    for (std::size_t i = 0; i < s.items(); ++i) {
      bitvec p(s.item_bits());
      p.randomize(r);
      payloads.push_back(p);
      s.seed(static_cast<node_id>(i % n), i, p);
    }
    const round_t cap = 2000 * (n + s.items()) * t;
    run_rounds(s.run_stepped(net, cap, true));
    ASSERT_TRUE(s.all_complete()) << "T=" << t;
    for (node_id u = 0; u < n; ++u) {
      for (std::size_t i = 0; i < s.items(); ++i) {
        EXPECT_EQ(s.decode(u, i), payloads[i]);
      }
    }
  }
}

TEST(flooding, works_under_t_interval_connectivity) {
  rng r(29);
  const auto dist = make_distribution(16, 16, 8, placement::one_per_node, r);
  auto adv = make_t_interval(16, 4, 8, 31);
  network net(16, 16, *adv, 37);
  token_state st(dist);
  flooding_config cfg;
  cfg.b_bits = 16;
  const protocol_result res = run_rounds(flooding_machine(net, st, cfg));
  EXPECT_TRUE(res.complete);
}

TEST(greedy_forward, works_under_t_interval_connectivity) {
  rng r(41);
  const auto dist = make_distribution(20, 20, 8, placement::one_per_node, r);
  auto adv = make_t_interval(20, 4, 10, 43);
  network net(20, 32, *adv, 47);
  token_state st(dist);
  greedy_forward_config cfg;
  cfg.b_bits = 32;
  const protocol_result res = run_rounds(greedy_forward_machine(net, st, cfg));
  EXPECT_TRUE(res.complete);
}

}  // namespace
}  // namespace ncdn
