// Graph library and topology generator tests (systems S3/S4), and the
// pair index that edge-markov and the Gilbert-Elliott memo key on edges.
#include <gtest/gtest.h>

#include "core/pair_index.hpp"
#include "dynnet/delta.hpp"
#include "dynnet/generators.hpp"
#include "dynnet/graph.hpp"

namespace ncdn {
namespace {

TEST(graph, basic_edges) {
  graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.degree(1), 2u);
}

TEST(graph, connectivity) {
  graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(g.is_connected());
  g.add_edge(1, 2);
  EXPECT_TRUE(g.is_connected());
}

TEST(graph, bfs_and_diameter_on_path) {
  const graph g = gen::path(10);
  const auto dist = g.bfs_distances(0);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(dist[i], i);
  EXPECT_EQ(g.diameter(), 9u);
}

TEST(graph, multi_source_bfs) {
  const graph g = gen::path(10);
  const auto dist = g.bfs_distances(std::vector<node_id>{0, 9});
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[9], 0u);
  EXPECT_EQ(dist[4], 4u);
  EXPECT_EQ(dist[5], 4u);
}

TEST(graph, power_of_path) {
  const graph g = gen::path(8);
  const graph g2 = g.power(2);
  EXPECT_TRUE(g2.has_edge(0, 1));
  EXPECT_TRUE(g2.has_edge(0, 2));
  EXPECT_FALSE(g2.has_edge(0, 3));
  EXPECT_EQ(g2.diameter(), 4u);  // ceil(7/2)
}

TEST(generators, shapes_and_sizes) {
  EXPECT_EQ(gen::path(7).edge_count(), 6u);
  EXPECT_EQ(gen::star(7).edge_count(), 6u);
  EXPECT_EQ(gen::clique(7).edge_count(), 21u);
  EXPECT_EQ(gen::grid(3, 4).order(), 12u);
  EXPECT_EQ(gen::grid(3, 4).edge_count(), 17u);  // 2*4 + 3*3
  EXPECT_EQ(gen::dumbbell(10).order(), 10u);
}

TEST(generators, star_diameter) { EXPECT_EQ(gen::star(20).diameter(), 2u); }

TEST(generators, all_connected_across_seeds) {
  rng r(42);
  for (int seed = 0; seed < 20; ++seed) {
    EXPECT_TRUE(gen::random_tree(33, r).is_connected());
    EXPECT_TRUE(gen::random_connected(33, 20, r).is_connected());
    EXPECT_TRUE(gen::permuted_path(33, r).is_connected());
    EXPECT_TRUE(gen::random_geometric(33, 0.15, r).is_connected());
  }
}

TEST(generators, random_tree_is_tree) {
  rng r(43);
  for (int t = 0; t < 10; ++t) {
    const graph g = gen::random_tree(40, r);
    EXPECT_EQ(g.edge_count(), 39u);
    EXPECT_TRUE(g.is_connected());
  }
}

TEST(generators, permuted_path_is_path) {
  rng r(44);
  const graph g = gen::permuted_path(25, r);
  std::size_t deg1 = 0, deg2 = 0;
  for (node_id u = 0; u < 25; ++u) {
    if (g.degree(u) == 1) ++deg1;
    if (g.degree(u) == 2) ++deg2;
  }
  EXPECT_EQ(deg1, 2u);
  EXPECT_EQ(deg2, 23u);
}

TEST(generators, dumbbell_has_bridge) {
  const graph g = gen::dumbbell(12);
  EXPECT_TRUE(g.is_connected());
  EXPECT_TRUE(g.has_edge(5, 6));
  // Each clique is complete.
  EXPECT_TRUE(g.has_edge(0, 5));
  EXPECT_TRUE(g.has_edge(6, 11));
  EXPECT_FALSE(g.has_edge(0, 11));
}

// operator== is the delta-vs-rebuild oracle: it must reject same edge SET
// in a different adjacency order, because inbox order depends on it.
TEST(graph_csr, equality_is_order_sensitive) {
  graph a(3);
  a.add_edge(0, 1);
  a.add_edge(0, 2);
  graph b(3);
  b.add_edge(0, 2);
  b.add_edge(0, 1);
  EXPECT_FALSE(a == b);
  graph c(3);
  c.add_edge(0, 1);
  c.add_edge(0, 2);
  EXPECT_TRUE(a == c);
}

// pop_edge_tail is the delta engine's undo: tail-append then tail-pop must
// restore the exact pre-append neighbor sequences.
TEST(graph_csr, pop_edge_tail_restores_order) {
  rng r(10);
  graph g = gen::random_connected(20, 12, r);
  const graph before = g;
  g.add_edge(3, 17);
  g.add_edge(5, 9);
  EXPECT_FALSE(g == before);
  g.pop_edge_tail(5, 9);
  g.pop_edge_tail(3, 17);
  EXPECT_TRUE(g == before);
  EXPECT_EQ(g.edge_count(), before.edge_count());
}

TEST(graph_csr, revision_advances_on_every_mutation) {
  graph g(4);
  const std::uint64_t r0 = g.revision();
  g.add_edge(0, 1);
  const std::uint64_t r1 = g.revision();
  EXPECT_NE(r0, r1);
  g.pop_edge_tail(0, 1);
  EXPECT_NE(g.revision(), r1);
  // Two fresh graphs never share a stamp (process-global counter) — this
  // is what lets delta consumers detect a rebuilt-in-place base.
  graph a(2), b(2);
  a.add_edge(0, 1);
  b.add_edge(0, 1);
  EXPECT_NE(a.revision(), b.revision());
}

// Adversaries rebuild their graphs in place, so a base keeps its address
// across rounds: the revision alone must tell a delta consumer to rebind,
// even when the rebuild commits the identical edge set.
TEST(graph_csr, rebuild_in_place_at_same_address_forces_a_rebind) {
  graph base = gen::path(6);
  topology_delta delta;
  delta.rebind(base);
  EXPECT_TRUE(delta.bound_to(base));
  base.reset(6);
  for (node_id u = 0; u + 1 < 6; ++u) base.add_edge(u, u + 1);
  EXPECT_TRUE(base == gen::path(6));
  EXPECT_FALSE(delta.bound_to(base));
  delta.rebind(base);
  EXPECT_TRUE(delta.bound_to(base));

  // The same through a generator refill from the same rng state.
  rng r(21);
  const rng again = r;
  gen::scratch s;
  graph g;
  gen::random_connected(g, 12, 6, r, s);
  const graph first = g;
  delta.rebind(g);
  r = again;
  gen::random_connected(g, 12, 6, r, s);
  EXPECT_TRUE(g == first);
  EXPECT_FALSE(delta.bound_to(g));
  // A reset with no edges added is a mutation too.
  delta.rebind(g);
  g.reset(12);
  EXPECT_FALSE(delta.bound_to(g));
}

// The in-place generators refill one graph with one scratch; each round
// must equal the by-value form's fresh graph (neighbor order included) and
// leave the rng where the by-value form does.  The order varies so reset
// both grows and shrinks the graph.
TEST(generators, in_place_matches_by_value_over_500_rounds) {
  rng a(31);
  rng b(31);
  gen::scratch s;
  graph g;
  for (int round = 0; round < 500; ++round) {
    const std::size_t n = 2 + static_cast<std::size_t>(round % 37);
    switch (round % 4) {
      case 0:
        gen::permuted_path(g, n, a, s);
        EXPECT_TRUE(g == gen::permuted_path(n, b)) << round;
        break;
      case 1:
        gen::random_tree(g, n, a, s);
        EXPECT_TRUE(g == gen::random_tree(n, b)) << round;
        break;
      case 2:
        gen::random_connected(g, n, n / 2, a, s);
        EXPECT_TRUE(g == gen::random_connected(n, n / 2, b)) << round;
        break;
      default:
        gen::random_geometric(g, n, 0.3, a, s);
        EXPECT_TRUE(g == gen::random_geometric(n, 0.3, b)) << round;
        break;
    }
    EXPECT_TRUE(g.is_connected()) << round;
    ASSERT_EQ(a(), b()) << round;
  }
}

// Scratch-reusing traversals must agree with the allocating ones and stop
// growing their buffers once warmed (the zero-allocation round contract).
TEST(graph_csr, scratch_bfs_matches_and_stops_growing) {
  rng r(11);
  bfs_scratch scratch;
  for (int round = 0; round < 6; ++round) {
    const graph g = gen::random_connected(64, 30, r);
    EXPECT_EQ(g.is_connected(), g.is_connected(scratch));
    const std::vector<node_id> srcs = {static_cast<node_id>(round)};
    const auto want = g.bfs_distances(srcs);
    g.bfs_distances(srcs, scratch);
    ASSERT_EQ(scratch.dist.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(scratch.dist[i], want[i]);
    }
    EXPECT_TRUE(g.power(2) == g.power(2, scratch));
  }
  const std::size_t warmed = scratch.grows;
  for (int round = 0; round < 6; ++round) {
    const graph g = gen::random_connected(64, 30, r);
    (void)g.is_connected(scratch);
    const std::vector<node_id> srcs = {0};
    g.bfs_distances(srcs, scratch);
  }
  EXPECT_EQ(scratch.grows, warmed);
}

std::uint64_t edge_key(node_id lo, node_id hi) {
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

TEST(pair_index, find_on_an_empty_index_is_npos) {
  const pair_index index;
  EXPECT_EQ(index.find(edge_key(0, 1)), pair_index::npos);
  EXPECT_TRUE(index.empty());
}

TEST(pair_index, find_never_inserts) {
  pair_index index;
  EXPECT_EQ(index.find_or_insert(edge_key(0, 1), 7), 7u);
  EXPECT_EQ(index.find(edge_key(2, 3)), pair_index::npos);
  EXPECT_EQ(index.find(edge_key(2, 3)), pair_index::npos);
  // Still unseen: the key is recorded at the fresh position offered now.
  EXPECT_EQ(index.find_or_insert(edge_key(2, 3), 8), 8u);
  EXPECT_EQ(index.find(edge_key(2, 3)), 8u);
  EXPECT_EQ(index.find(edge_key(0, 1)), 7u);
}

TEST(pair_index, positions_survive_growth_from_64_to_2048_slots) {
  // The table doubles whenever it passes half full: 64 slots until the
  // 33rd key, 2048 from the 513th.  1,000 keys cross five growths.
  pair_index index;
  std::vector<std::uint64_t> keys;
  for (node_id lo = 0; lo < 100; ++lo) {
    for (node_id hi = lo + 1; hi <= lo + 10; ++hi) {
      keys.push_back(edge_key(lo, hi));
    }
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(index.find_or_insert(keys[i], static_cast<std::uint32_t>(i)),
              i);
    // Re-offering a recorded key returns its position, not the new one.
    ASSERT_EQ(index.find_or_insert(keys[i / 2], 99999), i / 2);
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(index.find(keys[i]), i) << "key " << i;
  }
  EXPECT_EQ(index.find(edge_key(5000, 5001)), pair_index::npos);
}

TEST(pair_index, keys_sharing_a_home_slot_resolve_through_probing) {
  // The index's home slot: Fibonacci hashing (the key times 2^64 / phi,
  // from bit 32 up), masked to the first table's 64 slots.
  const auto home = [](std::uint64_t key) {
    return ((key * 0x9e3779b97f4a7c15ULL) >> 32) & 63;
  };
  std::vector<std::uint64_t> same;
  for (std::uint64_t key = 1; same.size() < 4; ++key) {
    if (home(key) == home(1)) same.push_back(key);
  }
  pair_index index;
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(index.find_or_insert(same[i], i + 10), i + 10);
  }
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(index.find(same[i]), i + 10);
  }
  // The fourth shares the home slot but was never recorded: the probe
  // walks past the other three to an empty slot.
  EXPECT_EQ(index.find(same[3]), pair_index::npos);
}

}  // namespace
}  // namespace ncdn
