// Token-forwarding baseline tests (system S7 / Theorem 2.1 upper bound).
#include <gtest/gtest.h>

#include <memory>

#include "core/session.hpp"
#include "protocols/flooding.hpp"

namespace ncdn {
namespace {

struct flood_case {
  std::size_t n, k, d, b;
  const char* adversary;
  bool pipelined;
};

class flooding_suite : public ::testing::TestWithParam<flood_case> {};

std::unique_ptr<adversary> build_adversary(const char* name, std::size_t n,
                                           std::uint64_t seed) {
  if (std::string(name) == "static-path") return make_static_path(n);
  if (std::string(name) == "static-star") return make_static_star(n);
  if (std::string(name) == "permuted-path") return make_permuted_path(n, seed);
  if (std::string(name) == "sorted-path") return make_sorted_path();
  return make_random_connected(n, n / 2, seed);
}

TEST_P(flooding_suite, disseminates_everything) {
  const flood_case c = GetParam();
  rng r(1000 + c.n + c.k);
  const auto dist = make_distribution(
      c.n, c.k, c.d,
      c.k == c.n ? placement::one_per_node : placement::random_spread, r);
  auto adv = build_adversary(c.adversary, c.n, 17);
  network net(c.n, c.b, *adv, 23);
  token_state st(dist);
  flooding_config cfg;
  cfg.b_bits = c.b;
  cfg.pipelined = c.pipelined;
  const protocol_result res = run_rounds(flooding_machine(net, st, cfg));
  EXPECT_TRUE(res.complete);
  EXPECT_GT(res.completion_round, 0u);
  EXPECT_LE(res.completion_round, res.rounds);
  const std::size_t batch = std::max<std::size_t>(1, c.b / c.d);
  if (!c.pipelined) {
    // Theorem 2.1 schedule: ceil(k/(b/d)) phases of n rounds.
    EXPECT_EQ(res.rounds, ((c.k + batch - 1) / batch) * c.n);
  }
  // Wire: at most batch tokens of d bits per message.
  EXPECT_LE(res.max_message_bits, batch * c.d);
}

INSTANTIATE_TEST_SUITE_P(
    sweeps, flooding_suite,
    ::testing::Values(
        flood_case{16, 16, 8, 8, "static-path", false},
        flood_case{16, 16, 8, 8, "permuted-path", false},
        flood_case{16, 16, 8, 8, "sorted-path", false},
        flood_case{24, 24, 8, 32, "permuted-path", false},
        flood_case{24, 12, 8, 16, "random-connected", false},
        flood_case{32, 32, 16, 64, "permuted-path", false},
        flood_case{16, 16, 8, 8, "static-star", false},
        flood_case{16, 16, 8, 8, "static-path", true},
        flood_case{24, 24, 8, 16, "permuted-path", true},
        flood_case{32, 16, 8, 8, "sorted-path", true},
        // k = 80: the rank masks span two words.
        flood_case{96, 80, 8, 32, "random-connected", false},
        flood_case{96, 80, 8, 32, "permuted-path", true}));

TEST(flooding, single_token_floods_in_one_phase) {
  rng r(5);
  const auto dist = make_distribution(12, 1, 8, placement::random_spread, r);
  auto adv = make_static_path(12);
  network net(12, 16, *adv, 5);
  token_state st(dist);
  flooding_config cfg;
  cfg.b_bits = 16;
  const protocol_result res = run_rounds(flooding_machine(net, st, cfg));
  EXPECT_TRUE(res.complete);
  EXPECT_EQ(res.rounds, 12u);
  EXPECT_EQ(res.epochs, 1u);
}

TEST(flooding, larger_messages_cut_rounds_linearly) {
  // Theorem 2.1: rounds scale ~ 1/b (the linear regime coding beats).
  rng r(6);
  round_t prev = 0;
  for (std::size_t b : {8u, 16u, 32u, 64u}) {
    rng rr(7);
    const auto dist = make_distribution(16, 16, 8, placement::one_per_node, rr);
    auto adv = make_permuted_path(16, 9);
    network net(16, b, *adv, 9);
    token_state st(dist);
    flooding_config cfg;
    cfg.b_bits = b;
    const protocol_result res = run_rounds(flooding_machine(net, st, cfg));
    EXPECT_TRUE(res.complete);
    if (prev != 0) {
      EXPECT_EQ(res.rounds * 2, prev);
    }
    prev = res.rounds;
  }
}

TEST(flooding, completion_tracks_observer_not_schedule) {
  // On a star the tokens spread much faster than the worst-case schedule;
  // completion_round must reflect that while rounds follows the schedule.
  rng r(8);
  const auto dist = make_distribution(20, 20, 8, placement::one_per_node, r);
  auto adv = make_static_star(20);
  network net(20, 8, *adv, 10);
  token_state st(dist);
  flooding_config cfg;
  cfg.b_bits = 8;
  const protocol_result res = run_rounds(flooding_machine(net, st, cfg));
  EXPECT_TRUE(res.complete);
  EXPECT_LT(res.completion_round, res.rounds);
}

TEST(flooding, pipelined_cap_saturates_instead_of_wrapping) {
  // phase_factor = 1e300 saturates the phase length; the streaming cap
  // built from it must mean "no cap" and let the run finish exactly as the
  // default factor does, not wrap to a zero-round, incomplete run.
  problem prob;
  prob.n = 64;
  prob.k = 64;
  prob.d = 8;
  prob.b = 8;
  for (const char* factor : {"1", "1e300"}) {
    session s(prob,
              protocol_spec{"token-forwarding-pipelined",
                            {{"phase_factor", factor}}},
              adversary_spec{"static-path", {}}, 1);
    const run_report& rep = s.run_to_completion();
    EXPECT_TRUE(rep.complete) << "phase_factor=" << factor;
    EXPECT_EQ(rep.rounds, 1402u) << "phase_factor=" << factor;
  }
}

TEST(flooding, two_word_masks_pin_rounds_and_wire_bits) {
  // Both modes send the B lowest-ranked tokens of a mask, in rank order;
  // sending other tokens, or the same ones in another order, moves these.
  struct pinned {
    const char* alg;
    const char* adv;
    round_t rounds;
    std::size_t bits;
  };
  problem prob;
  prob.n = 96;
  prob.k = 80;
  prob.d = 8;
  prob.b = 32;
  prob.place = placement::random_spread;
  for (const pinned& p :
       {pinned{"token-forwarding", "random-connected", 1920, 5891536},
        pinned{"token-forwarding-pipelined", "permuted-path", 81, 234000}}) {
    session s(prob, protocol_spec{p.alg, {}}, adversary_spec{p.adv, {}}, 5);
    const run_report& rep = s.run_to_completion();
    EXPECT_TRUE(rep.complete) << p.alg;
    EXPECT_EQ(rep.rounds, p.rounds) << p.alg;
    EXPECT_EQ(rep.metrics.total_message_bits, p.bits) << p.alg;
  }
}

TEST(flooding, three_word_masks_pin_rounds_and_wire_bits) {
  // k = 130: a message's rank mask spans three words, the last holding two
  // ranks, so a send that stops at the wrong bit of a word, or a reception
  // that skips the tail word, moves these.
  struct pinned {
    const char* alg;
    const char* adv;
    round_t rounds;
    std::size_t bits;
  };
  problem prob;
  prob.n = 144;
  prob.k = 130;
  prob.d = 8;
  prob.b = 32;
  prob.place = placement::random_spread;
  for (const pinned& p :
       {pinned{"token-forwarding", "random-connected", 4752, 21556048},
        pinned{"token-forwarding-pipelined", "permuted-path", 133, 586112}}) {
    session s(prob, protocol_spec{p.alg, {}}, adversary_spec{p.adv, {}}, 5);
    const run_report& rep = s.run_to_completion();
    EXPECT_TRUE(rep.complete) << p.alg;
    EXPECT_EQ(rep.rounds, p.rounds) << p.alg;
    EXPECT_EQ(rep.metrics.total_message_bits, p.bits) << p.alg;
  }
}

}  // namespace
}  // namespace ncdn
