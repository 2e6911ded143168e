// Centralized coding (S17, Corollary 2.6) and the counting application
// (S18, §4.1 remark).
#include <gtest/gtest.h>

#include "protocols/centralized.hpp"
#include "protocols/counting.hpp"

namespace ncdn {
namespace {

TEST(centralized, disseminates_in_linear_rounds) {
  for (std::size_t n : {16u, 32u}) {
    rng r(3 + n);
    const auto dist = make_distribution(n, n, 16, placement::one_per_node, r);
    auto adv = make_permuted_path(n, 7);
    network net(n, 64, *adv, 11);
    token_state st(dist);
    centralized_config cfg;
    cfg.b_bits = 64;
    const protocol_result res =
        run_rounds(centralized_rlnc_machine(net, st, cfg));
    EXPECT_TRUE(res.complete);
    // Theta(n): generous constant but clearly linear, and headerless.
    EXPECT_LE(res.rounds, 8 * n);
    EXPECT_LE(res.max_message_bits, 64u);
  }
}

TEST(centralized, message_carries_no_header_bits) {
  // With b = 4d, four combinations fit and the wire cost is exactly b.
  const std::size_t n = 12, d = 16, b = 64;
  rng r(13);
  const auto dist = make_distribution(n, n, d, placement::one_per_node, r);
  auto adv = make_static_path(n);
  network net(n, b, *adv, 17);
  token_state st(dist);
  centralized_config cfg;
  cfg.b_bits = b;
  const protocol_result res =
      run_rounds(centralized_rlnc_machine(net, st, cfg));
  EXPECT_TRUE(res.complete);
  EXPECT_EQ(res.max_message_bits, (b / d) * d);
}

TEST(centralized, works_on_sorted_path_adversary) {
  const std::size_t n = 20;
  rng r(19);
  const auto dist = make_distribution(n, n, 8, placement::one_per_node, r);
  auto adv = make_sorted_path();
  network net(n, 32, *adv, 23);
  token_state st(dist);
  centralized_config cfg;
  cfg.b_bits = 32;
  const protocol_result res =
      run_rounds(centralized_rlnc_machine(net, st, cfg));
  EXPECT_TRUE(res.complete);
}

class counting_suite
    : public ::testing::TestWithParam<std::pair<std::size_t, counting_engine>> {
};

TEST_P(counting_suite, counts_exactly) {
  const auto [n, engine] = GetParam();
  auto adv = make_permuted_path(n, 29);
  network net(n, 128, *adv, 31);
  counting_config cfg;
  cfg.b_bits = 128;
  cfg.engine = engine;
  const counting_result res = run_rounds(counting_machine(net, cfg));
  EXPECT_TRUE(res.correct);
  EXPECT_EQ(res.count, n);
  // Estimates double from 2; the winning estimate is in [n, 2n).
  EXPECT_GE(res.final_estimate, n);
  EXPECT_LT(res.final_estimate, 2 * n + 2);
}

INSTANTIATE_TEST_SUITE_P(
    sizes_and_engines, counting_suite,
    ::testing::Values(std::pair{5ul, counting_engine::flooding},
                      std::pair{12ul, counting_engine::flooding},
                      std::pair{23ul, counting_engine::flooding},
                      std::pair{5ul, counting_engine::coding},
                      std::pair{12ul, counting_engine::coding},
                      std::pair{23ul, counting_engine::coding}));

TEST(counting, works_on_static_and_geometric_topologies) {
  for (int which = 0; which < 2; ++which) {
    const std::size_t n = 14;
    auto adv = which == 0 ? make_static_path(n)
                          : make_random_geometric(n, 0.35, 37);
    network net(n, 128, *adv, 41);
    counting_config cfg;
    cfg.b_bits = 128;
    const counting_result res = run_rounds(counting_machine(net, cfg));
    EXPECT_TRUE(res.correct) << "topology " << which;
  }
}

TEST(counting, attempts_grow_logarithmically) {
  const std::size_t n = 29;
  auto adv = make_permuted_path(n, 43);
  network net(n, 128, *adv, 47);
  counting_config cfg;
  cfg.b_bits = 128;
  const counting_result res = run_rounds(counting_machine(net, cfg));
  ASSERT_TRUE(res.correct);
  // 2 -> 4 -> 8 -> 16 -> 32: five attempts for n = 29.
  EXPECT_EQ(res.attempts, 5u);
}

}  // namespace
}  // namespace ncdn
