// Randomized cross-implementation property tests: the packed GF(2) fast
// paths against the generic dense-matrix reference, decoder invariants
// under permutation, model-ordering guarantees of the round engine.
#include <gtest/gtest.h>

#include "coding/matrix.hpp"
#include "dynnet/network.hpp"
#include "gf/field.hpp"
#include "linalg/bitmatrix.hpp"
#include "linalg/decoder.hpp"
#include "linalg/matrix.hpp"

namespace ncdn {
namespace {

// --- packed vs dense rank agreement over random instances ---

class rank_agreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(rank_agreement, bitmatrix_matches_dense_gf2) {
  rng r(GetParam());
  const std::size_t rows_n = 3 + r.below(20);
  const std::size_t cols = 3 + r.below(40);
  std::vector<bitvec> rows;
  matrix<gf2> dense(rows_n, cols);
  for (std::size_t i = 0; i < rows_n; ++i) {
    bitvec v(cols);
    v.randomize(r);
    // Inject planned dependencies: every third row is a sum of earlier ones.
    if (i >= 2 && i % 3 == 0) {
      v = rows[i - 1];
      v.xor_with(rows[i - 2]);
    }
    for (std::size_t c = 0; c < cols; ++c) {
      dense.at(i, c) = v.get(c) ? 1 : 0;
    }
    rows.push_back(std::move(v));
  }
  EXPECT_EQ(gf2_rank(rows), dense.rank());
}

INSTANTIATE_TEST_SUITE_P(seeds, rank_agreement,
                         ::testing::Range<std::uint64_t>(1, 26));

// --- decoder invariants ---

class decoder_properties : public ::testing::TestWithParam<std::uint64_t> {};

// Combination source: a dense node_coder, whose draw is the paper's §5.1
// coin per basis row.
std::unique_ptr<node_coder> dense_coder(std::size_t k, std::size_t d) {
  return make_matrix_backend(matrix_spec{})->make_node_coder(k, d);
}

TEST_P(decoder_properties, rank_is_insert_order_invariant) {
  rng r(100 + GetParam());
  const std::size_t k = 4 + r.below(12);
  const std::size_t d = 8;
  const auto source = dense_coder(k, d);
  for (std::size_t i = 0; i < k; ++i) {
    bitvec p(d);
    p.randomize(r);
    bitvec row(k + d);
    row.set(i);
    row.copy_bits_from(p, 0, d, k);
    source->insert(row);
  }
  std::vector<bitvec> stream;
  for (std::size_t i = 0; i < k + 5; ++i) {
    stream.push_back(*source->make_combination(r));
  }
  bit_decoder a(k, d);
  for (const bitvec& row : stream) a.insert(row);
  r.shuffle(stream);
  bit_decoder b(k, d);
  for (const bitvec& row : stream) b.insert(row);
  EXPECT_EQ(a.rank(), b.rank());
  // Same span: each basis row of a lies in b's span.
  for (std::size_t i = 0; i < a.rank(); ++i) {
    EXPECT_TRUE(b.in_span(a.basis_row(i)));
  }
}

TEST_P(decoder_properties, innovative_iff_outside_current_span) {
  rng r(200 + GetParam());
  const std::size_t k = 4 + r.below(10);
  const std::size_t d = 8;
  const auto source = dense_coder(k, d);
  for (std::size_t i = 0; i < k; ++i) {
    bitvec p(d);
    p.randomize(r);
    bitvec row(k + d);
    row.set(i);
    row.copy_bits_from(p, 0, d, k);
    source->insert(row);
  }
  bit_decoder sink(k, d);
  for (int i = 0; i < 40; ++i) {
    const bitvec row = *source->make_combination(r);
    const bool predicted_innovative = !sink.in_span(row);
    EXPECT_EQ(sink.insert(row), predicted_innovative);
  }
}

TEST_P(decoder_properties, can_decode_is_monotone_and_exact) {
  rng r(300 + GetParam());
  const std::size_t k = 6, d = 8;
  const auto source = dense_coder(k, d);
  std::vector<bitvec> payloads;
  for (std::size_t i = 0; i < k; ++i) {
    bitvec p(d);
    p.randomize(r);
    payloads.push_back(p);
    bitvec row(k + d);
    row.set(i);
    row.copy_bits_from(p, 0, d, k);
    source->insert(row);
  }
  bit_decoder sink(k, d);
  std::vector<bool> was_decodable(k, false);
  while (!sink.complete()) {
    sink.insert(*source->make_combination(r));
    for (std::size_t i = 0; i < k; ++i) {
      const bool now = sink.can_decode(i);
      EXPECT_TRUE(!was_decodable[i] || now);  // monotone
      was_decodable[i] = now;
    }
  }
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_TRUE(sink.can_decode(i));
    EXPECT_EQ(sink.decode(i), payloads[i]);
  }
}

TEST_P(decoder_properties, senses_matches_explicit_dot_products) {
  rng r(400 + GetParam());
  const std::size_t k = 10, d = 4;
  bit_decoder dec(k, d);
  for (int i = 0; i < 6; ++i) {
    bitvec row(k + d);
    row.randomize(r);
    // Zero the payload so consistency holds trivially (coeff-only rows).
    for (std::size_t j = k; j < k + d; ++j) row.set(j, false);
    if (row.first_set() < k) dec.insert(row);
  }
  for (int trial = 0; trial < 20; ++trial) {
    bitvec mu(k);
    mu.randomize(r);
    bool expected = false;
    for (std::size_t i = 0; i < dec.rank(); ++i) {
      const bitvec coeff = dec.basis_row(i).slice(0, k);
      expected = expected || coeff.dot(mu);
    }
    EXPECT_EQ(dec.senses(mu), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(seeds, decoder_properties,
                         ::testing::Range<std::uint64_t>(1, 16));

// --- graph power vs BFS ground truth ---

class power_properties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(power_properties, power_edges_match_bfs_distances) {
  rng r(500 + GetParam());
  const std::size_t n = 6 + r.below(20);
  const graph g = gen::random_connected(n, r.below(n), r);
  const std::uint32_t dpow = 1 + static_cast<std::uint32_t>(r.below(4));
  const graph gp = g.power(dpow);
  for (node_id u = 0; u < n; ++u) {
    const auto dist = g.bfs_distances(u);
    for (node_id v = 0; v < n; ++v) {
      if (u == v) continue;
      EXPECT_EQ(gp.has_edge(u, v), dist[v] >= 1 && dist[v] <= dpow)
          << "n=" << n << " D=" << dpow << " u=" << u << " v=" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(seeds, power_properties,
                         ::testing::Range<std::uint64_t>(1, 11));

// --- model ordering: the adversary sees pre-round state (§4.1) ---

TEST(model_ordering, adversary_sees_state_before_messages) {
  // A probe adversary records the knowledge it observed; the protocol
  // increments each node's knowledge during delivery.  The adversary's
  // observation at round r must equal the post-round value of r-1.
  class probe_adversary final : public adversary {
   public:
    explicit probe_adversary(std::size_t n) : g_(gen::path(n)) {}
    const graph& topology(round_t, const knowledge_view& view) override {
      observed.push_back(view.knowledge(0));
      return g_;
    }
    std::string name() const override { return "probe"; }
    std::vector<std::size_t> observed;

   private:
    graph g_;
  };

  class counter_view final : public knowledge_view {
   public:
    explicit counter_view(std::vector<std::size_t>& c) : c_(&c) {}
    std::size_t node_count() const override { return c_->size(); }
    std::size_t knowledge(node_id u) const override { return (*c_)[u]; }

   private:
    std::vector<std::size_t>* c_;
  };

  struct unit_msg {
    std::size_t bit_size() const noexcept { return 8; }
  };

  std::vector<std::size_t> counters(4, 0);
  probe_adversary adv(4);
  counter_view view(counters);
  network net(4, 32, adv, 3);
  for (int r = 0; r < 5; ++r) {
    net.step<unit_msg>(
        view,
        [](node_id, rng&) -> std::optional<unit_msg> { return unit_msg{}; },
        [&](node_id u, const std::vector<const unit_msg*>& inbox) {
          counters[u] += inbox.size();
        });
  }
  // Node 0 (path end) hears exactly one message per round.
  EXPECT_EQ(adv.observed, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(model_ordering, oversized_message_trips_the_budget) {
  struct huge_msg {
    std::size_t bit_size() const noexcept { return 100000; }
  };
  auto adv = make_static_path(4);
  network net(4, 32, *adv, 5);
  opaque_view view(4);
  EXPECT_DEATH(
      net.step<huge_msg>(
          view,
          [](node_id, rng&) -> std::optional<huge_msg> { return huge_msg{}; },
          [](node_id, const std::vector<const huge_msg*>&) {}),
      "invariant");
}

}  // namespace
}  // namespace ncdn
