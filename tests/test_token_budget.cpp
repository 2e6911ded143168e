// Token distributions (§4.2 adversarial placement) and the §7 message
// budget arithmetic.
#include <gtest/gtest.h>

#include <set>

#include "coding/budget.hpp"
#include "coding/token.hpp"

namespace ncdn {
namespace {

TEST(token_distribution, one_per_node) {
  rng r(1);
  const auto dist = make_distribution(8, 8, 16, placement::one_per_node, r);
  EXPECT_EQ(dist.k(), 8u);
  for (node_id u = 0; u < 8; ++u) {
    ASSERT_EQ(dist.held_by_node[u].size(), 1u);
    EXPECT_EQ(dist.tokens[dist.held_by_node[u][0]].id.origin, u);
  }
}

TEST(token_distribution, single_source) {
  rng r(2);
  const auto dist = make_distribution(8, 5, 16, placement::single_source, r);
  EXPECT_EQ(dist.held_by_node[0].size(), 5u);
  for (node_id u = 1; u < 8; ++u) EXPECT_TRUE(dist.held_by_node[u].empty());
}

TEST(token_distribution, random_spread_places_every_token_once) {
  rng r(3);
  const auto dist = make_distribution(16, 12, 16, placement::random_spread, r);
  std::size_t placed = 0;
  for (const auto& held : dist.held_by_node) placed += held.size();
  EXPECT_EQ(placed, 12u);
}

TEST(token_distribution, adversarial_far_concentrates_high_ids) {
  rng r(4);
  const auto dist =
      make_distribution(16, 8, 16, placement::adversarial_far, r);
  for (node_id u = 0; u < 12; ++u) EXPECT_TRUE(dist.held_by_node[u].empty());
}

TEST(token_distribution, payloads_distinct_and_nonzero) {
  rng r(5);
  // d = 8 with k = 200 forces heavy rejection sampling; all must stay
  // distinct and nonzero.
  const auto dist = make_distribution(200, 200, 8, placement::one_per_node, r);
  std::set<std::uint64_t> seen;
  for (const auto& t : dist.tokens) {
    EXPECT_TRUE(t.payload.any());
    EXPECT_TRUE(seen.insert(t.payload.hash()).second);
  }
}

TEST(token_distribution, ids_unique_and_sorted) {
  rng r(6);
  const auto dist = make_distribution(8, 8, 16, placement::single_source, r);
  for (std::size_t i = 1; i < dist.k(); ++i) {
    EXPECT_LT(dist.tokens[i - 1].id, dist.tokens[i].id);
  }
}

TEST(token_distribution, rejects_k_too_large_for_d) {
  rng r(7);
  EXPECT_DEATH(make_distribution(300, 300, 8, placement::one_per_node, r),
               "precondition");
}

TEST(block_budget, the_paper_split) {
  // b = 64, d = 8: blocks of b/2d = 4 tokens (32 bits), b/2 = 32 blocks,
  // b^2/4d = 128 tokens per broadcast, message exactly b bits.
  const coded_budget q = block_budget(64, 8);
  EXPECT_EQ(q.tokens_per_item, 4u);
  EXPECT_EQ(q.item_bits, 32u);
  EXPECT_EQ(q.items, 32u);
  EXPECT_EQ(q.tokens_total, 128u);
  EXPECT_EQ(q.message_bits, 64u);
}

TEST(block_budget, degenerate_b_equals_d) {
  const coded_budget q = block_budget(16, 16);
  EXPECT_EQ(q.tokens_per_item, 1u);  // cannot split a token
  EXPECT_EQ(q.item_bits, 16u);
  EXPECT_EQ(q.items, 8u);
  EXPECT_EQ(q.message_bits, 24u);  // 1.5b: the O(b) constant
}

TEST(block_budget, message_always_within_2b) {
  for (std::size_t b : {8u, 16u, 64u, 256u}) {
    for (std::size_t d : {4u, 8u, 16u, 64u}) {
      if (d > b) continue;
      const coded_budget q = block_budget(b, d);
      EXPECT_LE(q.message_bits, 2 * b) << "b=" << b << " d=" << d;
      EXPECT_GE(q.tokens_total, 1u);
    }
  }
}

TEST(token_id, packing_preserves_order) {
  const token_id a{1, 5};
  const token_id b{2, 0};
  const token_id c{1, 6};
  EXPECT_LT(a, b);
  EXPECT_LT(a, c);
  EXPECT_LT(a.packed(), b.packed());
  EXPECT_LT(a.packed(), c.packed());
}

TEST(token_distribution, id_bits_scale) {
  rng r(8);
  const auto small = make_distribution(4, 4, 16, placement::one_per_node, r);
  const auto large =
      make_distribution(1024, 64, 16, placement::random_spread, r);
  EXPECT_LT(small.id_bits(), large.id_bits());
}

}  // namespace
}  // namespace ncdn
