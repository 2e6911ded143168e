// Derandomization tests (S16, paper §6): advice-driven deterministic coding
// decodes over large fields against every adversary including the
// omniscient chain; over GF(2) the omniscient adversary visibly stalls it.
#include <gtest/gtest.h>

#include "gf/gfp.hpp"
#include "protocols/deterministic_nc.hpp"

namespace ncdn {
namespace {

TEST(advice, deterministic_and_seed_sensitive) {
  const auto a = advice_coefficient<mersenne61>(1, 2, 3, 4);
  const auto b = advice_coefficient<mersenne61>(1, 2, 3, 4);
  EXPECT_EQ(a, b);
  const auto c = advice_coefficient<mersenne61>(2, 2, 3, 4);
  EXPECT_NE(a, c);  // overwhelming probability for a 61-bit value
}

TEST(deterministic_session, is_reproducible) {
  // Two identical sessions against identical adversaries take identical
  // rounds — there is no randomness anywhere after construction.
  round_t used[2];
  for (int run = 0; run < 2; ++run) {
    const std::size_t n = 10, k = 6, d = 16;
    field_rlnc_session<mersenne61> s(n, k, d, /*advice_seed=*/99);
    rng r(5);
    for (std::size_t i = 0; i < k; ++i) {
      bitvec p(d);
      p.randomize(r);
      s.seed(static_cast<node_id>(i % n), i, p);
    }
    auto adv = make_permuted_path(n, 7);
    network net(n, s.wire_bits(), *adv, 11);
    used[run] = s.run(net, 4000, true);
    ASSERT_TRUE(s.all_complete());
  }
  EXPECT_EQ(used[0], used[1]);
}

TEST(deterministic_session, decodes_against_oblivious_adversaries) {
  const std::size_t n = 12, k = 8, d = 24;
  field_rlnc_session<mersenne61> s(n, k, d, 123);
  rng r(13);
  std::vector<bitvec> payloads;
  for (std::size_t i = 0; i < k; ++i) {
    bitvec p(d);
    p.randomize(r);
    payloads.push_back(p);
    s.seed(static_cast<node_id>(i % n), i, p);
  }
  auto adv = make_random_connected(n, n, 17);
  network net(n, s.wire_bits(), *adv, 19);
  const round_t used = s.run(net, 4000, true);
  ASSERT_TRUE(s.all_complete());
  EXPECT_LE(used, 20 * (n + k));
  for (node_id u = 0; u < n; ++u) {
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(s.decoder(u).decode(i), to_symbols<mersenne61>(payloads[i]));
    }
  }
}

TEST(omniscient, large_field_defeats_omniscient_adversary) {
  // Theorem 6.1's content: with q = 2^61 - 1 the omniscient chain adversary
  // cannot prevent O(n + k) mixing.
  const std::size_t n = 12, k = 8, d = 16;
  field_rlnc_session<mersenne61> s(n, k, d, 31);
  rng r(37);
  for (std::size_t i = 0; i < k; ++i) {
    bitvec p(d);
    p.randomize(r);
    s.seed(static_cast<node_id>(i % n), i, p);
  }
  omniscient_chain_adversary<mersenne61> adv(&s);
  network net(n, s.wire_bits(), adv, 41);
  const round_t used = s.run(net, 10000, true);
  ASSERT_TRUE(s.all_complete());
  EXPECT_LE(used, 20 * (n + k));
}

TEST(omniscient, small_field_is_visibly_stalled) {
  // Against GF(2) advice the omniscient adversary places non-innovative
  // transmissions together and mixing slows dramatically compared to an
  // oblivious adversary on the same instance.
  const std::size_t n = 12, k = 8, d = 16;

  round_t oblivious_rounds = 0;
  {
    field_rlnc_session<gf2> s(n, k, d, 53);
    rng r(59);
    for (std::size_t i = 0; i < k; ++i) {
      bitvec p(d);
      p.randomize(r);
      s.seed(static_cast<node_id>(i % n), i, p);
    }
    auto adv = make_permuted_path(n, 61);
    network net(n, s.wire_bits(), *adv, 67);
    oblivious_rounds = s.run(net, 40000, true);
    ASSERT_TRUE(s.all_complete());
  }

  round_t omniscient_rounds = 0;
  bool omniscient_finished = false;
  {
    field_rlnc_session<gf2> s(n, k, d, 53);
    rng r(59);
    for (std::size_t i = 0; i < k; ++i) {
      bitvec p(d);
      p.randomize(r);
      s.seed(static_cast<node_id>(i % n), i, p);
    }
    omniscient_chain_adversary<gf2> adv(&s);
    network net(n, s.wire_bits(), adv, 67);
    omniscient_rounds = s.run(net, 40000, true);
    omniscient_finished = s.all_complete();
  }
  // Either it never finishes within the cap, or it takes much longer.
  if (omniscient_finished) {
    EXPECT_GE(omniscient_rounds, 3 * oblivious_rounds);
  } else {
    EXPECT_EQ(omniscient_rounds, 40000u);
  }
}

TEST(omniscient, chain_topology_is_connected_path) {
  const std::size_t n = 8, k = 4, d = 8;
  field_rlnc_session<mersenne61> s(n, k, d, 71);
  rng r(73);
  for (std::size_t i = 0; i < k; ++i) {
    bitvec p(d);
    p.randomize(r);
    s.seed(static_cast<node_id>(i), i, p);
  }
  omniscient_chain_adversary<mersenne61> adv(&s);
  opaque_view view(n);
  const graph& g = adv.topology(0, view);
  EXPECT_EQ(g.order(), n);
  EXPECT_EQ(g.edge_count(), n - 1);
  EXPECT_TRUE(g.is_connected());
}

}  // namespace
}  // namespace ncdn
