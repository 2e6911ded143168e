// RLNC k-indexed-broadcast tests (system S9 / Lemma 5.3): correctness on
// every adversary, O(n + k) round behaviour, message sizing k lg q + d, and
// the generic-field sessions.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "gf/gf2k.hpp"
#include "gf/gfp.hpp"
#include "protocols/rlnc_broadcast.hpp"

namespace ncdn {
namespace {

std::unique_ptr<adversary> build_adversary(const std::string& name,
                                           std::size_t n, std::uint64_t seed) {
  if (name == "static-path") return make_static_path(n);
  if (name == "static-star") return make_static_star(n);
  if (name == "permuted-path") return make_permuted_path(n, seed);
  if (name == "sorted-path") return make_sorted_path();
  if (name == "geometric") return make_random_geometric(n, 0.3, seed);
  return make_random_connected(n, n / 2, seed);
}

struct rlnc_case {
  std::size_t n, items, item_bits;
  const char* adversary;
};

class rlnc_suite : public ::testing::TestWithParam<rlnc_case> {};

TEST_P(rlnc_suite, all_nodes_decode_within_linear_rounds) {
  const rlnc_case c = GetParam();
  rng r(31 + c.n);
  auto adv = build_adversary(c.adversary, c.n, 13);
  const std::size_t msg_bits = c.items + c.item_bits;
  network net(c.n, msg_bits, *adv, 37);

  rlnc_session session(c.n, c.items, c.item_bits);
  std::vector<bitvec> payloads;
  for (std::size_t i = 0; i < c.items; ++i) {
    bitvec p(c.item_bits);
    p.randomize(r);
    payloads.push_back(p);
    session.seed(static_cast<node_id>(i % c.n), i, p);
  }

  const round_t cap = 20 * (c.n + c.items);
  const round_t used =
      run_rounds(session.run_stepped(net, cap, /*stop_early=*/true));
  ASSERT_TRUE(session.all_complete()) << "did not decode within cap";
  // Lemma 5.3's O(n + k): generous constant, but the *linear* shape.
  EXPECT_LE(used, 8 * (c.n + c.items));
  // Every node decodes the true payloads.
  for (node_id u = 0; u < c.n; ++u) {
    for (std::size_t i = 0; i < c.items; ++i) {
      EXPECT_EQ(session.decode(u, i), payloads[i]);
    }
  }
  // Message size: k * lg 2 + d bits exactly (Lemma 5.3).
  EXPECT_EQ(net.max_observed_message_bits(), c.items + c.item_bits);
}

INSTANTIATE_TEST_SUITE_P(
    sweeps, rlnc_suite,
    ::testing::Values(rlnc_case{8, 8, 16, "static-path"},
                      rlnc_case{8, 8, 16, "permuted-path"},
                      rlnc_case{8, 8, 16, "sorted-path"},
                      rlnc_case{16, 16, 16, "permuted-path"},
                      rlnc_case{16, 4, 64, "static-star"},
                      rlnc_case{16, 32, 8, "random-connected"},
                      rlnc_case{24, 24, 24, "geometric"},
                      rlnc_case{32, 8, 32, "permuted-path"},
                      rlnc_case{32, 32, 32, "sorted-path"}));

TEST(rlnc_session, single_source_broadcast) {
  // All items at node 0 (the greedy-forward usage).
  const std::size_t n = 12, k = 10, d = 20;
  rng r(41);
  auto adv = make_permuted_path(n, 43);
  network net(n, k + d, *adv, 47);
  rlnc_session s(n, k, d);
  std::vector<bitvec> payloads;
  for (std::size_t i = 0; i < k; ++i) {
    bitvec p(d);
    p.randomize(r);
    payloads.push_back(p);
    s.seed(0, i, p);
  }
  run_rounds(s.run_stepped(net, 20 * (n + k), true));
  ASSERT_TRUE(s.all_complete());
  for (node_id u = 0; u < n; ++u) {
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(s.decode(u, i), payloads[i]);
    }
  }
}

TEST(rlnc_session, knowledge_view_reports_rank) {
  const std::size_t n = 6, k = 4, d = 8;
  rng r(53);
  auto adv = make_static_path(n);
  network net(n, k + d, *adv, 59);
  rlnc_session s(n, k, d);
  for (std::size_t i = 0; i < k; ++i) {
    bitvec p(d);
    p.randomize(r);
    s.seed(0, i, p);
  }
  EXPECT_EQ(s.knowledge(0), k);
  EXPECT_EQ(s.knowledge(1), 0u);
  run_rounds(s.run_stepped(net, 200, true));
  for (node_id u = 0; u < n; ++u) EXPECT_EQ(s.knowledge(u), k);
}

TEST(rlnc_session, redundant_seeding_is_harmless) {
  // The same item seeded at several nodes (tokens may have many holders).
  const std::size_t n = 10, k = 6, d = 12;
  rng r(61);
  auto adv = make_permuted_path(n, 67);
  network net(n, k + d, *adv, 71);
  rlnc_session s(n, k, d);
  std::vector<bitvec> payloads;
  for (std::size_t i = 0; i < k; ++i) {
    bitvec p(d);
    p.randomize(r);
    payloads.push_back(p);
    for (node_id u = 0; u < n; u += 3) s.seed(u, i, p);
  }
  run_rounds(s.run_stepped(net, 20 * (n + k), true));
  ASSERT_TRUE(s.all_complete());
  for (node_id u = 0; u < n; ++u) {
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(s.decode(u, i), payloads[i]);
    }
  }
}

template <class F>
class field_rlnc_suite : public ::testing::Test {};

using rlnc_fields = ::testing::Types<gf2, gf16, gf256, mersenne61>;
TYPED_TEST_SUITE(field_rlnc_suite, rlnc_fields);

TYPED_TEST(field_rlnc_suite, broadcast_decodes_over_any_field) {
  using F = TypeParam;
  const std::size_t n = 8, k = 6, item_bits = 24;
  rng r(73);
  auto adv = make_permuted_path(n, 79);
  field_rlnc_session<F> s(n, k, item_bits);
  network net(n, s.wire_bits(), *adv, 83);

  std::vector<bitvec> payloads;
  for (std::size_t i = 0; i < k; ++i) {
    bitvec p(item_bits);
    p.randomize(r);
    payloads.push_back(p);
    s.seed(static_cast<node_id>(i % n), i, p);
  }
  const round_t used = s.run(net, 50 * (n + k), true);
  ASSERT_TRUE(s.all_complete());
  EXPECT_LE(used, 30 * (n + k));
  for (node_id u = 0; u < n; ++u) {
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(s.decoder(u).decode(i), to_symbols<F>(payloads[i]));
    }
  }
}

TYPED_TEST(field_rlnc_suite, all_ones_payload_decodes) {
  // Payload bits pack floor(lg q) to a symbol, so every symbol is below q:
  // over GF(2^61 - 1) a 61-bit chunk of ones would be q itself, i.e. zero.
  // Checked with random and with advice coefficients.
  using F = TypeParam;
  const std::size_t n = 6, k = 3, d = 61;
  bitvec ones(d);
  for (std::size_t j = 0; j < d; ++j) ones.set(j);
  for (const auto& v : to_symbols<F>(ones)) EXPECT_LT(v, F::order);
  const std::optional<std::uint64_t> advice_seeds[] = {std::nullopt, 7};
  for (const auto& advice : advice_seeds) {
    field_rlnc_session<F> s(n, k, d, advice);
    rng r(89);
    std::vector<bitvec> payloads{ones};
    for (std::size_t i = 1; i < k; ++i) {
      bitvec p(d);
      p.randomize(r);
      payloads.push_back(p);
    }
    for (std::size_t i = 0; i < k; ++i) {
      s.seed(static_cast<node_id>(i % n), i, payloads[i]);
    }
    auto adv = make_permuted_path(n, 97);
    network net(n, s.wire_bits(), *adv, 101);
    s.run(net, 50 * (n + k), true);
    ASSERT_TRUE(s.all_complete());
    for (node_id u = 0; u < n; ++u) {
      for (std::size_t i = 0; i < k; ++i) {
        EXPECT_EQ(s.decoder(u).decode(i), to_symbols<F>(payloads[i]))
            << "node " << u << " token " << i;
      }
    }
  }
}

TEST(rlnc_wire_size, gf2_messages_cost_exactly_k_plus_s_bits) {
  // Wire-size regression (Lemma 5.3): messages cost exactly k*lg q + s
  // bits; at q = 2 that is k + s, with no hidden headers or padding.
  const std::size_t n = 8, k = 12, s = 16;
  auto adv = make_static_path(n);
  network net(n, k + s, *adv, 5);
  rlnc_session sess(n, k, s);
  rng r(6);
  for (std::size_t i = 0; i < k; ++i) {
    bitvec p(s);
    p.randomize(r);
    sess.seed(static_cast<node_id>(i % n), i, p);
  }
  coded_msg probe{bitvec(k + s), {}};
  EXPECT_EQ(probe.bit_size(), k + s);
  run_rounds(sess.run_stepped(net, 4, false));
  EXPECT_EQ(net.max_observed_message_bits(), k + s);
}

TEST(rlnc_wire_size, field_messages_cost_exactly_k_lgq_plus_s_bits) {
  // Same regression over larger fields; s is a multiple of lg q so the
  // symbol-packing padding vanishes and the Lemma 5.3 cost is exact.
  const std::size_t n = 6, k = 10, s = 16;
  field_rlnc_session<gf16> s16(n, k, s);
  EXPECT_EQ(s16.wire_bits(), k * 4 + s);
  field_rlnc_session<gf256> s256(n, k, s);
  EXPECT_EQ(s256.wire_bits(), k * 8 + s);

  auto adv = make_static_path(n);
  network net(n, k * 4 + s, *adv, 7);
  rng r(8);
  for (std::size_t i = 0; i < k; ++i) {
    bitvec p(s);
    p.randomize(r);
    s16.seed(static_cast<node_id>(i % n), i, p);
  }
  s16.run(net, 4, false);
  EXPECT_EQ(net.max_observed_message_bits(), k * 4 + s);
}

TEST(rlnc_shape, rounds_grow_linearly_not_quadratically) {
  // Lemma 5.3 sanity: doubling n roughly doubles rounds (k = n), far from
  // the quadratic growth of forwarding.  Averaged over seeds for stability.
  double r16 = 0, r32 = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    for (std::size_t n : {16u, 32u}) {
      rng r(89 + seed);
      auto adv = make_permuted_path(n, 97 + seed);
      network net(n, n + 16, *adv, 101 + seed);
      rlnc_session s(n, n, 16);
      for (std::size_t i = 0; i < n; ++i) {
        bitvec p(16);
        p.randomize(r);
        s.seed(static_cast<node_id>(i), i, p);
      }
      const round_t used = run_rounds(s.run_stepped(net, 100 * n, true));
      ASSERT_TRUE(s.all_complete());
      (n == 16 ? r16 : r32) += static_cast<double>(used);
    }
  }
  EXPECT_LT(r32 / r16, 3.0);  // linear-ish, not ~4x (quadratic)
}

}  // namespace
}  // namespace ncdn
