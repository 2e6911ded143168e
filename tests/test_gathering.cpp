// Tests for random-forward gathering (S8 / Lemma 7.2) and the two
// gathering-based dissemination algorithms greedy-forward (S11 / Thm 7.3)
// and priority-forward (S12 / Thm 7.5).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "protocols/greedy_forward.hpp"
#include "protocols/priority_forward.hpp"
#include "protocols/random_forward.hpp"

namespace ncdn {
namespace {

std::unique_ptr<adversary> build_adversary(const std::string& name,
                                           std::size_t n, std::uint64_t seed) {
  if (name == "static-path") return make_static_path(n);
  if (name == "permuted-path") return make_permuted_path(n, seed);
  if (name == "sorted-path") return make_sorted_path();
  if (name == "geometric") return make_random_geometric(n, 0.3, seed);
  return make_random_connected(n, n / 2, seed);
}

TEST(random_forward, identifies_max_holder) {
  // Give node 3 strictly more tokens; with zero gather rounds of effect
  // (clique => everyone learns everything in round one) the max flood must
  // report a correct maximum.
  rng r(7);
  const auto dist = make_distribution(8, 8, 8, placement::one_per_node, r);
  auto adv = make_static_path(8);
  network net(8, 16, *adv, 11);
  token_state st(dist);
  // Pre-teach node 3 some extra tokens.
  st.learn(3, 0);
  st.learn(3, 1);
  st.learn(3, 7);
  gather_config cfg;
  cfg.b_bits = 16;
  const gather_result g = run_rounds(random_forward_machine(net, st, cfg));
  // After gathering, the leader count can only have grown; leader holds at
  // least as many as anyone else (ties break toward higher uid).
  for (node_id u = 0; u < 8; ++u) {
    EXPECT_GE(g.leader_count, st.remaining_count(u));
  }
  EXPECT_EQ(g.rounds, 16u);  // n gather + n flood
  EXPECT_FALSE(g.fail_seen);
}

TEST(random_forward, fail_flag_floods_to_everyone) {
  rng r(9);
  const auto dist = make_distribution(10, 10, 8, placement::one_per_node, r);
  auto adv = make_static_path(10);
  network net(10, 16, *adv, 13);
  token_state st(dist);
  std::vector<bool> fail(10, false);
  fail[7] = true;
  gather_config cfg;
  cfg.b_bits = 16;
  const gather_result g =
      run_rounds(random_forward_machine(net, st, cfg, &fail));
  EXPECT_TRUE(g.fail_seen);
}

TEST(random_forward, gathering_concentrates_tokens) {
  // Lemma 7.2 qualitative check: after O(n) rounds of random forwarding,
  // the best node holds >= sqrt(b k / d) tokens (or everything).
  const std::size_t n = 64, k = 64, d = 8, b = 32;
  std::size_t successes = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    rng r(17 + seed);
    const auto dist = make_distribution(n, k, d, placement::one_per_node, r);
    auto adv = make_permuted_path(n, 19 + seed);
    network net(n, b, *adv, 23 + seed);
    token_state st(dist);
    gather_config cfg;
    cfg.b_bits = b;
    const gather_result g = run_rounds(random_forward_machine(net, st, cfg));
    const double target = std::sqrt(static_cast<double>(b) * k / d);
    if (g.leader_count == k ||
        static_cast<double>(g.leader_count) >= target) {
      ++successes;
    }
  }
  EXPECT_GE(successes, 4u);  // "with high probability"
}

struct dissem_case {
  std::size_t n, k, d, b;
  const char* adversary;
};

class greedy_suite : public ::testing::TestWithParam<dissem_case> {};

TEST_P(greedy_suite, disseminates_everything) {
  const dissem_case c = GetParam();
  rng r(100 + c.n + c.k + c.b);
  const auto dist = make_distribution(
      c.n, c.k, c.d,
      c.k == c.n ? placement::one_per_node : placement::random_spread, r);
  auto adv = build_adversary(c.adversary, c.n, 29);
  network net(c.n, c.b, *adv, 31);
  token_state st(dist);
  greedy_forward_config cfg;
  cfg.b_bits = c.b;
  const protocol_result res = run_rounds(greedy_forward_machine(net, st, cfg));
  EXPECT_TRUE(res.complete) << "epochs=" << res.epochs;
  EXPECT_GT(res.epochs, 0u);
  for (node_id u = 0; u < c.n; ++u) {
    EXPECT_EQ(st.known_count(u), c.k);
  }
}

INSTANTIATE_TEST_SUITE_P(
    sweeps, greedy_suite,
    ::testing::Values(dissem_case{16, 16, 8, 16, "permuted-path"},
                      dissem_case{16, 16, 8, 16, "static-path"},
                      dissem_case{16, 16, 8, 16, "sorted-path"},
                      dissem_case{24, 24, 8, 32, "permuted-path"},
                      dissem_case{24, 12, 8, 24, "random-connected"},
                      dissem_case{32, 32, 8, 16, "geometric"},
                      dissem_case{32, 32, 16, 64, "permuted-path"},
                      dissem_case{48, 48, 8, 48, "sorted-path"},
                      dissem_case{16, 16, 16, 16, "permuted-path"}));

class priority_suite : public ::testing::TestWithParam<dissem_case> {};

TEST_P(priority_suite, disseminates_everything_flooding_mode) {
  const dissem_case c = GetParam();
  rng r(200 + c.n + c.k + c.b);
  const auto dist = make_distribution(
      c.n, c.k, c.d,
      c.k == c.n ? placement::one_per_node : placement::random_spread, r);
  auto adv = build_adversary(c.adversary, c.n, 37);
  network net(c.n, c.b, *adv, 41);
  token_state st(dist);
  priority_forward_config cfg;
  cfg.b_bits = c.b;
  cfg.indexing = indexing_mode::flooding;
  const priority_forward_result res =
      run_rounds(priority_forward_machine(net, st, cfg));
  EXPECT_TRUE(res.complete)
      << "greedy=" << res.greedy_epochs << " prio=" << res.priority_iters;
}

TEST_P(priority_suite, disseminates_everything_charged_mode) {
  const dissem_case c = GetParam();
  rng r(300 + c.n + c.k + c.b);
  const auto dist = make_distribution(
      c.n, c.k, c.d,
      c.k == c.n ? placement::one_per_node : placement::random_spread, r);
  auto adv = build_adversary(c.adversary, c.n, 43);
  network net(c.n, c.b, *adv, 47);
  token_state st(dist);
  priority_forward_config cfg;
  cfg.b_bits = c.b;
  cfg.indexing = indexing_mode::charged;
  const priority_forward_result res =
      run_rounds(priority_forward_machine(net, st, cfg));
  EXPECT_TRUE(res.complete);
}

INSTANTIATE_TEST_SUITE_P(
    sweeps, priority_suite,
    ::testing::Values(dissem_case{16, 16, 8, 16, "permuted-path"},
                      dissem_case{16, 16, 8, 32, "sorted-path"},
                      dissem_case{24, 24, 8, 48, "permuted-path"},
                      dissem_case{32, 32, 8, 64, "random-connected"},
                      dissem_case{32, 16, 8, 96, "permuted-path"},
                      dissem_case{24, 24, 8, 16, "geometric"}));

TEST(priority_forward, skip_greedy_exercises_loop_directly) {
  const std::size_t n = 20, k = 20, d = 8, b = 40;
  rng r(51);
  const auto dist = make_distribution(n, k, d, placement::one_per_node, r);
  auto adv = make_permuted_path(n, 53);
  network net(n, b, *adv, 59);
  token_state st(dist);
  priority_forward_config cfg;
  cfg.b_bits = b;
  cfg.skip_greedy_phase = true;
  const priority_forward_result res =
      run_rounds(priority_forward_machine(net, st, cfg));
  EXPECT_TRUE(res.complete);
  EXPECT_EQ(res.greedy_epochs, 0u);
  EXPECT_GT(res.priority_iters, 0u);
}

TEST(greedy_forward, recovers_from_injected_decode_failures) {
  // A deliberately skimpy broadcast budget makes decode failures common;
  // the fail-flag/reinstate machinery must still finish the job (Las
  // Vegas), just in more epochs.
  const std::size_t n = 16, k = 16, d = 8, b = 16;
  rng r(61);
  const auto dist = make_distribution(n, k, d, placement::one_per_node, r);
  auto adv = make_permuted_path(n, 67);
  network net(n, b, *adv, 71);
  token_state st(dist);
  greedy_forward_config cfg;
  cfg.b_bits = b;
  cfg.broadcast_factor = 1.05;  // barely enough: failures occur sometimes
  cfg.max_epochs = 4000;
  const protocol_result res = run_rounds(greedy_forward_machine(net, st, cfg));
  EXPECT_TRUE(res.complete);
}

TEST(token_state, retire_and_reinstate_bookkeeping) {
  rng r(73);
  const auto dist = make_distribution(4, 4, 8, placement::one_per_node, r);
  token_state st(dist);
  EXPECT_EQ(st.remaining_count(0), 1u);
  st.learn(0, 1);
  EXPECT_EQ(st.remaining_count(0), 2u);
  st.retire(0, 1);
  EXPECT_EQ(st.remaining_count(0), 1u);
  EXPECT_TRUE(st.knows(0, 1));
  st.reinstate(0, 1);
  EXPECT_EQ(st.remaining_count(0), 2u);
}

}  // namespace
}  // namespace ncdn
