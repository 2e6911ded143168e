// Enum-tag names and the naive-indexed (Cor 7.1) schedule.  Every
// protocol x adversary run goes through the session in test_registry.cpp.
#include <gtest/gtest.h>

#include "core/dissemination.hpp"
#include "protocols/naive_indexed.hpp"

namespace ncdn {
namespace {

TEST(naive_indexed, schedule_matches_corollary_7_1) {
  // One iteration handles m = b/(2 id_bits) tokens in n + 2(n + m) rounds;
  // the total should scale like n k / m.
  const std::size_t n = 16, k = 16, d = 8, b = 64;
  rng r(7);
  const auto dist = make_distribution(n, k, d, placement::one_per_node, r);
  auto adv = make_permuted_path(n, 11);
  network net(n, b, *adv, 13);
  token_state st(dist);
  naive_indexed_config cfg;
  cfg.b_bits = b;
  const protocol_result res = run_rounds(naive_indexed_machine(net, st, cfg));
  ASSERT_TRUE(res.complete);
  const std::size_t m = std::max<std::size_t>(1, b / (2 * dist.id_bits()));
  const std::size_t iters = (k + m - 1) / m + 1;  // +1 empty-detect round
  EXPECT_LE(res.epochs, iters + 1);
}

TEST(facade, names_are_stable) {
  EXPECT_STREQ(to_string(algorithm::greedy_forward), "greedy-forward");
  EXPECT_STREQ(to_string(topology_kind::permuted_path), "permuted-path");
}

}  // namespace
}  // namespace ncdn
