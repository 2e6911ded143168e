// Tests for bitvec, batch GF(2) elimination, dense matrices, and the
// incremental decoders (system S2) — including cross-checks between the
// packed GF(2) path and the generic-field reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "coding/matrix.hpp"
#include "gf/gf2k.hpp"
#include "gf/gfp.hpp"
#include "linalg/bitmatrix.hpp"
#include "linalg/bitvec.hpp"
#include "linalg/decoder.hpp"
#include "linalg/matrix.hpp"
#include "linalg/row_block.hpp"

namespace ncdn {
namespace {

TEST(bitvec, set_get_flip) {
  bitvec v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_FALSE(v.any());
  v.set(0);
  v.set(64);
  v.set(129);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(129));
  EXPECT_FALSE(v.get(1));
  EXPECT_EQ(v.popcount(), 3u);
  v.flip(64);
  EXPECT_FALSE(v.get(64));
  EXPECT_EQ(v.popcount(), 2u);
}

TEST(bitvec, first_set_scans_across_words) {
  bitvec v(200);
  EXPECT_EQ(v.first_set(), 200u);
  v.set(150);
  EXPECT_EQ(v.first_set(), 150u);
  v.set(70);
  EXPECT_EQ(v.first_set(), 70u);
  EXPECT_EQ(v.first_set_from(71), 150u);
  EXPECT_EQ(v.first_set_from(150), 150u);
  EXPECT_EQ(v.first_set_from(151), 200u);
}

TEST(bitvec, xor_is_involution) {
  rng r(7);
  bitvec a(300), b(300);
  a.randomize(r);
  b.randomize(r);
  bitvec c = a;
  c.xor_with(b);
  c.xor_with(b);
  EXPECT_EQ(c, a);
}

TEST(bitvec, randomize_masks_tail) {
  rng r(8);
  for (std::size_t bits : {1u, 63u, 64u, 65u, 127u, 129u}) {
    bitvec v(bits);
    v.randomize(r);
    // No bits beyond size: total popcount of words equals popcount of bits.
    std::size_t bit_pop = 0;
    for (std::size_t i = 0; i < bits; ++i) {
      if (v.get(i)) ++bit_pop;
    }
    EXPECT_EQ(v.popcount(), bit_pop);
  }
}

TEST(bitvec, dot_product) {
  bitvec a(10), b(10);
  a.set(1);
  a.set(3);
  b.set(3);
  b.set(4);
  EXPECT_TRUE(a.dot(b));  // overlap {3}: parity 1
  b.set(1);
  EXPECT_FALSE(a.dot(b));  // overlap {1,3}: parity 0
}

TEST(bitvec, slice_and_copy_roundtrip) {
  rng r(9);
  bitvec v(128);
  v.randomize(r);
  const bitvec mid = v.slice(30, 70);
  bitvec w(128);
  w.copy_bits_from(mid, 0, 70, 30);
  for (std::size_t i = 30; i < 100; ++i) EXPECT_EQ(w.get(i), v.get(i));
}

TEST(bitvec, copy_bits_matches_scalar_reference_exhaustively) {
  // The word-parallel copy_bits_from (shift/mask word loop) must agree
  // with the obvious bit-at-a-time loop for every (src_begin, dst_begin)
  // alignment straddling word boundaries, including chunk lengths around
  // 1, 63, 64, 65 and full-word multiples.
  rng r(91);
  bitvec src(197);
  src.randomize(r);
  for (std::size_t src_begin = 0; src_begin <= 130; ++src_begin) {
    for (std::size_t dst_begin : {0u, 1u, 31u, 62u, 63u, 64u, 65u, 127u,
                                  128u, 129u}) {
      for (std::size_t len : {0u, 1u, 7u, 63u, 64u, 65u, 66u}) {
        if (src_begin + len > src.size()) continue;
        bitvec got(260);
        got.randomize(r);  // pre-existing bits outside the window survive
        bitvec want = got;
        if (dst_begin + len > got.size()) continue;
        got.copy_bits_from(src, src_begin, len, dst_begin);
        for (std::size_t i = 0; i < len; ++i) {
          want.set(dst_begin + i, src.get(src_begin + i));
        }
        ASSERT_EQ(got, want) << "src_begin=" << src_begin
                             << " dst_begin=" << dst_begin << " len=" << len;
      }
    }
  }
}

TEST(bitvec, popcount_below_counts_only_the_prefix) {
  bitvec v(190);
  for (std::size_t i : {0u, 5u, 63u, 64u, 100u, 128u, 189u}) v.set(i);
  EXPECT_EQ(v.popcount_below(0), 0u);
  EXPECT_EQ(v.popcount_below(1), 1u);
  EXPECT_EQ(v.popcount_below(63), 2u);
  EXPECT_EQ(v.popcount_below(64), 3u);
  EXPECT_EQ(v.popcount_below(65), 4u);
  EXPECT_EQ(v.popcount_below(128), 5u);
  EXPECT_EQ(v.popcount_below(129), 6u);
  EXPECT_EQ(v.popcount_below(190), 7u);
  EXPECT_EQ(v.popcount_below(190), v.popcount());
}

// --- contiguous row block ---

TEST(row_block, commit_places_the_staged_row_and_keeps_tails_masked) {
  // Row widths of one to three words, none a whole number of words: the
  // tail bits past row_bits() stay zero through stage, XOR and commit.
  rng r(31);
  for (const std::size_t bits : {37u, 64u, 65u, 130u}) {
    SCOPED_TRACE("bits " + std::to_string(bits));
    row_block block(bits, /*max_rows=*/5);
    const std::size_t words = block.row_words();
    EXPECT_EQ(words, words_for_bits(bits));
    std::vector<bitvec> expect;  // the block's rows, in order
    const auto stage_random = [&] {
      bitvec v(bits);
      v.randomize(r);
      const std::uint64_t* slot = block.stage(v.data());
      EXPECT_TRUE(std::equal(v.data(), v.data() + words, slot));
      return v;
    };
    // Append, then insert at the front, in the middle and at the end.
    for (const std::size_t where : {0u, 0u, 1u, 3u, 1u}) {
      const std::size_t pos = std::min(where, block.size());
      expect.insert(expect.begin() + static_cast<std::ptrdiff_t>(pos),
                    stage_random());
      block.commit(pos);
    }
    // A staged row that is never committed leaves the rows alone, and the
    // next stage starts from zero.
    (void)stage_random();
    const std::uint64_t* zero = block.stage();
    for (std::size_t w = 0; w < words; ++w) EXPECT_EQ(zero[w], 0u);
    // Doubling (1, 2, 4 slots) stops at the five rows plus the staging
    // slot, not at 8.
    EXPECT_EQ(block.capacity(), 6u);
    ASSERT_EQ(block.size(), expect.size());
    for (std::size_t i = 0; i < block.size(); ++i) {
      for (std::size_t bit = 0; bit < bits; ++bit) {
        ASSERT_EQ(block.get(i, bit), expect[i].get(bit))
            << "row " << i << " bit " << bit;
      }
      EXPECT_EQ(first_set_bit(block.row(i), bits), expect[i].first_set());
    }
    // The kernel bitvec::xor_with runs, on block rows.
    bitvec sum = expect[1];
    sum.xor_with(expect[3]);
    std::uint64_t* row1 = block.row(1);
    xor_row(row1, block.row(3), words);
    EXPECT_TRUE(std::equal(sum.data(), sum.data() + words, row1));
    const std::size_t tail = bits & 63;
    if (tail != 0) {
      EXPECT_EQ(row1[words - 1] >> tail, 0u);
    }
  }
}

TEST(row_block, no_bits_after_ignores_bits_past_the_coefficients) {
  // [coefficients | payload] rows: only (pivot, upto) is inspected, so a
  // payload sharing the last coefficient word never counts.
  for (const std::size_t k : {37u, 64u, 65u, 130u}) {
    const std::size_t bits = k + 24;
    for (std::size_t pivot = 0; pivot < k; pivot += 7) {
      bitvec row(bits);
      row.set(pivot);
      for (std::size_t j = k; j < bits; j += 5) row.set(j);  // payload
      EXPECT_TRUE(no_bits_after(row.data(), pivot, k)) << k << " " << pivot;
      for (std::size_t other = pivot + 1; other < k; other += 11) {
        bitvec extra = row;
        extra.set(other);
        EXPECT_FALSE(no_bits_after(extra.data(), pivot, k))
            << k << " " << pivot << " " << other;
      }
    }
  }
}

TEST(row_block, for_each_marked_marks_in_order_before_acting) {
  // Marks run once per index in index order, 64 at a time, each batch
  // before any act on it; acts visit the marked indices in order.
  for (const std::size_t n : {0u, 1u, 63u, 64u, 65u, 130u}) {
    std::vector<std::size_t> marked, acted;
    const auto mark = [&](std::size_t i) {
      marked.push_back(i);
      return i % 3 == 0;
    };
    const auto act = [&](std::size_t i) {
      acted.push_back(i);
      // Every mark of i's batch of 64 has run, and none of the next one.
      EXPECT_EQ(marked.size(), std::min(n, (i / 64 + 1) * 64));
    };
    for_each_marked(n, mark, act);
    std::vector<std::size_t> want_marked(n), want_acted;
    for (std::size_t i = 0; i < n; ++i) {
      want_marked[i] = i;
      if (i % 3 == 0) want_acted.push_back(i);
    }
    EXPECT_EQ(marked, want_marked);
    EXPECT_EQ(acted, want_acted);
  }
}

TEST(gf2_batch, rank_of_identity) {
  std::vector<bitvec> rows;
  for (int i = 0; i < 5; ++i) {
    bitvec v(5);
    v.set(static_cast<std::size_t>(i));
    rows.push_back(v);
  }
  EXPECT_EQ(gf2_rank(rows), 5u);
}

TEST(gf2_batch, dependent_rows) {
  bitvec a(4), b(4), c(4);
  a.set(0);
  a.set(1);
  b.set(1);
  b.set(2);
  c = a;
  c.xor_with(b);  // c = a + b
  EXPECT_EQ(gf2_rank({a, b, c}), 2u);
}

TEST(gf2_batch, rref_is_canonical) {
  rng r(10);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<bitvec> rows;
    for (int i = 0; i < 8; ++i) {
      bitvec v(12);
      v.randomize(r);
      rows.push_back(v);
    }
    std::vector<bitvec> a = rows;
    std::vector<bitvec> b = rows;
    r.shuffle(b);  // row order must not matter for RREF
    gf2_rref(a);
    gf2_rref(b);
    EXPECT_EQ(a, b);
  }
}

TEST(dense_matrix, rref_rank_gf256) {
  matrix<gf256> m(3, 4);
  // Row2 = Row0 + Row1 -> rank 2.
  rng r(11);
  for (std::size_t c = 0; c < 4; ++c) {
    m.at(0, c) = gf256::uniform(r);
    m.at(1, c) = gf256::uniform(r);
    m.at(2, c) = gf256::add(m.at(0, c), m.at(1, c));
  }
  EXPECT_EQ(m.rank(), 2u);
}

TEST(dense_matrix, identity_rref_stays_identity) {
  matrix<mersenne61> m(4, 4);
  for (std::size_t i = 0; i < 4; ++i) m.at(i, i) = 1;
  EXPECT_EQ(m.rref(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_EQ(m.at(i, j), i == j ? 1u : 0u);
    }
  }
}

// --- incremental bit decoder ---

// Combination source: a dense node_coder, whose draw is the paper's §5.1
// coin per basis row.
std::unique_ptr<node_coder> dense_coder(std::size_t k, std::size_t d) {
  return make_matrix_backend(matrix_spec{})->make_node_coder(k, d);
}

TEST(bit_decoder, seeds_then_decodes_identity) {
  const std::size_t k = 6, d = 16;
  bit_decoder dec(k, d);
  rng r(12);
  std::vector<bitvec> payloads;
  for (std::size_t i = 0; i < k; ++i) {
    bitvec p(d);
    p.randomize(r);
    payloads.push_back(p);
    bitvec row(k + d);
    row.set(i);
    row.copy_bits_from(p, 0, d, k);
    EXPECT_TRUE(dec.insert(row));
  }
  EXPECT_TRUE(dec.complete());
  for (std::size_t i = 0; i < k; ++i) EXPECT_EQ(dec.decode(i), payloads[i]);
}

TEST(bit_decoder, detects_non_innovative) {
  const std::size_t k = 4, d = 8;
  bit_decoder dec(k, d);
  rng r(13);
  std::vector<bitvec> rows;
  for (std::size_t i = 0; i < k; ++i) {
    bitvec p(d);
    p.randomize(r);
    bitvec row(k + d);
    row.set(i);
    row.copy_bits_from(p, 0, d, k);
    rows.push_back(row);
  }
  EXPECT_TRUE(dec.insert(rows[0]));
  EXPECT_TRUE(dec.insert(rows[1]));
  bitvec combo = rows[0];
  combo.xor_with(rows[1]);
  EXPECT_FALSE(dec.insert(combo));  // in the span already
  EXPECT_EQ(dec.rank(), 2u);
  EXPECT_TRUE(dec.insert(rows[2]));
  EXPECT_TRUE(dec.insert(rows[3]));
  EXPECT_TRUE(dec.complete());
}

TEST(bit_decoder, decodes_from_random_combinations) {
  // Property: feeding random combinations of seeded rows through a second
  // decoder reconstructs the originals once rank is full.
  const std::size_t k = 16, d = 32;
  rng r(14);
  for (int trial = 0; trial < 20; ++trial) {
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
    std::size_t fed = 0;
    while (!sink.complete()) {
      auto combo = source->make_combination(r);
      ASSERT_TRUE(combo.has_value());
      sink.insert(*combo);
      ASSERT_LT(++fed, 1000u);  // rank grows with prob 1/2 per draw
    }
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(sink.decode(i), payloads[i]);
    }
  }
}

TEST(bit_decoder, rank_is_monotone_and_bounded) {
  const std::size_t k = 12, d = 12;
  rng r(15);
  const auto full = dense_coder(k, d);
  for (std::size_t i = 0; i < k; ++i) {
    bitvec p(d);
    p.randomize(r);
    bitvec row(k + d);
    row.set(i);
    row.copy_bits_from(p, 0, d, k);
    full->insert(row);
  }
  bit_decoder dec(k, d);
  std::size_t prev = 0;
  for (int i = 0; i < 200; ++i) {
    auto combo = full->make_combination(r);
    dec.insert(*combo);
    EXPECT_GE(dec.rank(), prev);
    EXPECT_LE(dec.rank(), k);
    prev = dec.rank();
  }
}

TEST(bit_decoder, can_decode_tracks_singletons_via_pivot_index) {
  // can_decode is now a pivot->row lookup plus an in-place coefficient
  // popcount (no O(rank) scan, no slice allocation); cross-check it against
  // the definitional answer at every insertion step.
  const std::size_t k = 9, d = 130;  // payload spans multiple words
  rng r(191);
  std::vector<bitvec> payloads;
  for (std::size_t i = 0; i < k; ++i) {
    bitvec p(d);
    p.randomize(r);
    payloads.push_back(p);
  }
  bit_decoder dec(k, d);
  // Feed mixed rows: e_0+e_1, e_1, then singles; re-derive expectations
  // from a reference decoder's RREF each time.
  std::vector<bitvec> fed;
  for (std::size_t step = 0; step < 24; ++step) {
    bitvec row(k + d);
    const std::size_t a = static_cast<std::size_t>(r.below(k));
    const std::size_t b = static_cast<std::size_t>(r.below(k));
    row.set(a);
    row.copy_bits_from(payloads[a], 0, d, k);
    if (b != a && r.coin()) {
      row.flip(b);
      row.xor_with([&] {
        bitvec t(k + d);
        t.copy_bits_from(payloads[b], 0, d, k);
        return t;
      }());
    }
    dec.insert(row);
    fed.push_back(row);
    for (std::size_t i = 0; i < k; ++i) {
      // Reference: e_i decodable iff [e_i | payload_i] is in the span.
      bitvec probe(k + d);
      probe.set(i);
      probe.copy_bits_from(payloads[i], 0, d, k);
      EXPECT_EQ(dec.can_decode(i), dec.in_span(probe))
          << "step " << step << " token " << i;
    }
  }
  // Once complete, decode agrees with the payloads (pivot-index path).
  for (std::size_t i = 0; i < k; ++i) {
    if (!dec.complete()) break;
    EXPECT_EQ(dec.decode(i), payloads[i]);
  }
  // reset() clears the pivot index too.
  dec.reset(k, d);
  EXPECT_EQ(dec.rank(), 0u);
  for (std::size_t i = 0; i < k; ++i) EXPECT_FALSE(dec.can_decode(i));
}

TEST(bit_decoder, basis_never_allocates_past_its_rank_bound) {
  // At k = 256 doubling used to give the basis 512 row slots for the
  // k + 1 it can use (k rows plus the staging slot).
  const std::size_t k = 256, d = 16;
  rng r(27);
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
  EXPECT_EQ(sink.basis().capacity(), 0u);  // nothing allocated up front
  std::size_t fed = 0;
  while (!sink.complete()) {
    auto combo = source->make_combination(r);
    ASSERT_TRUE(combo.has_value());
    sink.insert(*combo);
    ASSERT_LE(sink.basis().capacity(), k + 1) << "after " << fed << " rows";
    ASSERT_LT(++fed, 4 * k);
  }
  // A full basis still stages and drops an arrival: the staging slot is
  // the last of the k + 1.
  EXPECT_FALSE(sink.insert(*source->make_combination(r)));
  EXPECT_EQ(sink.basis().capacity(), k + 1);
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(sink.decode(i), payloads[i]) << "token " << i;
  }
}

TEST(bit_decoder, counts_elimination_xor_word_ops) {
  const std::size_t k = 4, d = 64;
  bit_decoder dec(k, d);
  EXPECT_EQ(dec.xor_word_ops(), 0u);
  bitvec r0(k + d);
  r0.set(0);
  dec.insert(r0);
  EXPECT_EQ(dec.xor_word_ops(), 0u);  // first row eliminates against nothing
  bitvec r01(k + d);
  r01.set(0);
  r01.set(1);
  dec.insert(r01);  // one forward XOR against r0's pivot; no back-elim hits
  const std::uint64_t row_words = bitvec(k + d).words().size();
  EXPECT_EQ(dec.xor_word_ops(), row_words);
  dec.insert(r0);  // duplicate: one forward XOR to reduce to zero... plus
                   // the elimination against the second row if it hits
  EXPECT_GE(dec.xor_word_ops(), 2 * row_words);
}

TEST(bit_decoder, senses_definition_5_1) {
  // A node senses mu iff some received coefficient vector is non-orthogonal
  // to mu.  Seed e_0; mu = e_0 is sensed, mu = e_1 is not.
  const std::size_t k = 4, d = 4;
  bit_decoder dec(k, d);
  bitvec row(k + d);
  row.set(0);
  row.set(k + 2);
  dec.insert(row);
  bitvec mu0(k), mu1(k);
  mu0.set(0);
  mu1.set(1);
  EXPECT_TRUE(dec.senses(mu0));
  EXPECT_FALSE(dec.senses(mu1));
}

TEST(bit_decoder, senses_matches_scalar_reference) {
  // senses() is word-parallel (bitvec::dot); the reference below is the
  // scalar bit-at-a-time definition it replaced.  Dimensions straddle word
  // boundaries so the masked-tail overlap word is exercised.
  const auto scalar_senses = [](const bit_decoder& dec, const bitvec& mu) {
    for (std::size_t r = 0; r < dec.rank(); ++r) {
      bool dot = false;
      for (std::size_t i = mu.first_set(); i < mu.size();
           i = mu.first_set_from(i + 1)) {
        dot ^= dec.basis().get(r, i);
      }
      if (dot) return true;
    }
    return false;
  };

  rng r(21);
  for (std::size_t k : {5u, 63u, 64u, 65u, 130u}) {
    const std::size_t d = 24;
    bit_decoder dec(k, d);
    // Random consistent rows: payload = 0 keeps rows linear in coefficients.
    for (std::size_t i = 0; i < k / 2 + 1; ++i) {
      bitvec coeff(k);
      coeff.randomize(r);
      bitvec row(k + d);
      row.copy_bits_from(coeff, 0, k, 0);
      dec.insert(std::move(row));
    }
    for (int trial = 0; trial < 200; ++trial) {
      bitvec mu(k);
      mu.randomize(r);
      EXPECT_EQ(dec.senses(mu), scalar_senses(dec, mu))
          << "k=" << k << " trial=" << trial;
    }
    // Edge cases: all-zero mu never sensed; single high bit.
    bitvec zero(k);
    EXPECT_FALSE(dec.senses(zero));
    bitvec high(k);
    high.set(k - 1);
    EXPECT_EQ(dec.senses(high), scalar_senses(dec, high));
  }
}

// --- generic field decoder, cross-checked against the packed one ---

template <class F>
class field_decoder_suite : public ::testing::Test {};

using decoder_fields = ::testing::Types<gf2, gf16, gf256, gf65536, mersenne61>;
TYPED_TEST_SUITE(field_decoder_suite, decoder_fields);

TYPED_TEST(field_decoder_suite, seeds_then_decodes) {
  using F = TypeParam;
  const std::size_t k = 8, m = 6;
  rng r(16);
  field_decoder<F> dec(k, m);
  std::vector<std::vector<typename F::value_type>> payloads;
  for (std::size_t i = 0; i < k; ++i) {
    std::vector<typename F::value_type> p(m);
    for (auto& v : p) v = F::uniform(r);
    payloads.push_back(p);
    std::vector<typename F::value_type> row(k + m, F::zero());
    row[i] = F::one();
    std::copy(p.begin(), p.end(), row.begin() + k);
    EXPECT_TRUE(dec.insert(row));
  }
  EXPECT_TRUE(dec.complete());
  for (std::size_t i = 0; i < k; ++i) EXPECT_EQ(dec.decode(i), payloads[i]);
}

TYPED_TEST(field_decoder_suite, random_recoding_roundtrip) {
  using F = TypeParam;
  const std::size_t k = 6, m = 4;
  rng r(17);
  field_decoder<F> source(k, m);
  std::vector<std::vector<typename F::value_type>> payloads;
  for (std::size_t i = 0; i < k; ++i) {
    std::vector<typename F::value_type> p(m);
    for (auto& v : p) v = F::uniform(r);
    payloads.push_back(p);
    std::vector<typename F::value_type> row(k + m, F::zero());
    row[i] = F::one();
    std::copy(p.begin(), p.end(), row.begin() + k);
    source.insert(row);
  }
  field_decoder<F> sink(k, m);
  int fed = 0;
  while (!sink.complete()) {
    auto combo = source.random_combination(r);
    ASSERT_TRUE(combo.has_value());
    sink.insert(*combo);
    ASSERT_LT(++fed, 2000);
  }
  for (std::size_t i = 0; i < k; ++i) EXPECT_EQ(sink.decode(i), payloads[i]);
}

TEST(decoder_cross_check, packed_and_generic_agree_on_rank) {
  // Same GF(2) rows through bit_decoder and field_decoder<gf2>.
  const std::size_t k = 10, d = 10;
  rng r(18);
  for (int trial = 0; trial < 30; ++trial) {
    bit_decoder packed(k, d);
    field_decoder<gf2> generic(k, d);
    for (int i = 0; i < 25; ++i) {
      bitvec row(k + d);
      row.randomize(r);
      // Make the row consistent: zero the payload region's dependence —
      // instead build from a seeded source so payload = f(coeffs).
      (void)row;
    }
    // Build a consistent source first.
    const auto source = dense_coder(k, d);
    for (std::size_t i = 0; i < k; ++i) {
      bitvec p(d);
      p.randomize(r);
      bitvec row(k + d);
      row.set(i);
      row.copy_bits_from(p, 0, d, k);
      source->insert(row);
    }
    for (int i = 0; i < 25; ++i) {
      auto combo = source->make_combination(r);
      std::vector<gf2::value_type> grow(k + d, 0);
      for (std::size_t j = 0; j < k + d; ++j) grow[j] = combo->get(j) ? 1 : 0;
      const bool a = packed.insert(*combo);
      const bool b = generic.insert(grow);
      EXPECT_EQ(a, b);
      EXPECT_EQ(packed.rank(), generic.rank());
    }
  }
}

TEST(decoder_cross_check, packed_and_generic_agree_on_payloads_and_sensing) {
  // Property test over random row streams: bit_decoder and
  // field_decoder<gf2> must agree on innovativeness verdicts, rank at
  // every step, and — once complete — on every decoded payload.
  const std::size_t k = 12, d = 20;
  rng r(19);
  for (int trial = 0; trial < 20; ++trial) {
    // Ground-truth payloads feed a fully-seeded source coder.
    std::vector<bitvec> payloads;
    const auto source = dense_coder(k, d);
    for (std::size_t i = 0; i < k; ++i) {
      bitvec p(d);
      p.randomize(r);
      payloads.push_back(p);
      bitvec row(k + d);
      row.set(i);
      row.copy_bits_from(p, 0, d, k);
      source->insert(row);
    }

    bit_decoder packed(k, d);
    field_decoder<gf2> generic(k, d);
    int fed = 0;
    while (!packed.complete() || !generic.complete()) {
      auto combo = source->make_combination(r);
      ASSERT_TRUE(combo.has_value());
      std::vector<gf2::value_type> grow(k + d, 0);
      for (std::size_t j = 0; j < k + d; ++j) grow[j] = combo->get(j) ? 1 : 0;
      EXPECT_EQ(packed.insert(*combo), generic.insert(std::move(grow)));
      EXPECT_EQ(packed.rank(), generic.rank());
      ASSERT_LT(++fed, 4000);
    }
    for (std::size_t i = 0; i < k; ++i) {
      const bitvec pp = packed.decode(i);
      const auto gp = generic.decode(i);
      ASSERT_EQ(pp.size(), d);
      ASSERT_EQ(gp.size(), d);
      EXPECT_EQ(pp, payloads[i]);
      for (std::size_t bit = 0; bit < d; ++bit) {
        EXPECT_EQ(pp.get(bit), gp[bit] != 0) << "token " << i << " bit " << bit;
      }
    }
  }
}

// --- fixed-width row kernels against a plain reference ---------------------

// A plain online GF(2) elimination, the reference for the fixed-width
// kernels: one basis of row_bits-bit rows with pivots below coeff_bits,
// eliminated with xor_row and tested with no_bits_after, one row at a time.
// Rows stay in insertion order (bit_decoder) or sorted by pivot (a
// generation).
struct plain_basis {
  std::size_t coeff_bits = 0;
  std::size_t row_bits = 0;
  bool sorted = false;
  std::vector<std::vector<std::uint64_t>> rows;
  std::vector<std::size_t> pivots;
  std::uint64_t xor_words = 0;

  std::size_t words() const { return words_for_bits(row_bits); }
  static bool bit(const std::vector<std::uint64_t>& row, std::size_t c) {
    return ((row[c >> 6] >> (c & 63)) & 1) != 0;
  }

  // One online step; calls on_singleton(c) for every row that became
  // decodable, c its pivot.
  template <class F>
  void insert(std::vector<std::uint64_t> row, const F& on_singleton) {
    std::uint64_t xors = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (bit(row, pivots[i])) {
        xor_row(row.data(), rows[i].data(), words());
        ++xors;
      }
    }
    const std::size_t p = first_set_bit(row.data(), row_bits);
    if (p < coeff_bits) {
      for (std::size_t i = 0; i < rows.size(); ++i) {
        if (!bit(rows[i], p)) continue;
        xor_row(rows[i].data(), row.data(), words());
        ++xors;
        if (no_bits_after(rows[i].data(), pivots[i], coeff_bits)) {
          on_singleton(pivots[i]);
        }
      }
      if (no_bits_after(row.data(), p, coeff_bits)) on_singleton(p);
      const auto at = sorted ? std::lower_bound(pivots.begin(), pivots.end(), p)
                             : pivots.end();
      rows.insert(rows.begin() + (at - pivots.begin()), std::move(row));
      pivots.insert(at, p);
    }
    xor_words += xors * words();
  }

  std::size_t singletons() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (no_bits_after(rows[i].data(), pivots[i], coeff_bits)) ++n;
    }
    return n;
  }

  // Coin-then-XOR over the rows in order; the sum and its XOR word-ops.
  template <class Coin>
  std::vector<std::uint64_t> combine(const Coin& coin,
                                     std::uint64_t* xors) const {
    std::vector<std::uint64_t> sum(words(), 0);
    for (const std::vector<std::uint64_t>& row : rows) {
      if (coin()) {
        xor_row(sum.data(), row.data(), words());
        *xors += words();
      }
    }
    return sum;
  }
};

// The reference for one layout of the coding matrix: the full span (one
// basis over every token, in insertion order) or generation windows of
// gen_size tokens plus band_overlap, at full wire width (dec=rref) or
// narrowed to [window | payload] (dec=banded).
struct plain_coder {
  struct generation {
    std::size_t start = 0;
    std::size_t width = 0;
    plain_basis basis;
  };
  std::size_t k = 0;
  std::size_t d = 0;
  bool grouped = false;
  bool narrow = false;
  std::vector<generation> gens;
  std::vector<bool> decoded;
  std::size_t decoded_count = 0;
  std::uint64_t emit_xors = 0;

  plain_coder(std::size_t k_, std::size_t d_, std::size_t gen_size,
              std::size_t overlap, bool narrow_)
      : k(k_), d(d_), grouped(gen_size != 0), narrow(narrow_), decoded(k_) {
    const std::size_t g = grouped ? gen_size : k;
    for (std::size_t start = 0; start < k; start += g) {
      generation gen;
      gen.start = start;
      gen.width = grouped ? std::min(g + overlap, k - start) : k;
      gen.basis.coeff_bits = narrow ? gen.width : k;
      gen.basis.row_bits = gen.basis.coeff_bits + d;
      gen.basis.sorted = grouped;
      gens.push_back(gen);
    }
  }

  void insert(const bitvec& row) {
    const std::size_t lo = row.first_set();
    if (lo >= k) return;
    std::size_t hi = lo;
    for (std::size_t c = lo; c < k; ++c) {
      if (row.get(c)) hi = c;
    }
    for (generation& g : gens) {
      if (g.start > lo || hi >= g.start + g.width) continue;
      std::vector<std::uint64_t> staged = row.words();
      if (narrow) {
        staged.assign(words_for_bits(g.width + d), 0);
        copy_bits(staged.data(), 0, row.data(), row.words().size(), g.start,
                  g.width);
        copy_bits(staged.data(), g.width, row.data(), row.words().size(), k, d);
      }
      g.basis.insert(std::move(staged), [&](std::size_t c) {
        const std::size_t token = narrow ? g.start + c : c;
        if (!decoded[token]) {
          decoded[token] = true;
          ++decoded_count;
        }
      });
    }
  }

  std::size_t rank() const {
    return grouped ? decoded_count : gens[0].basis.rows.size();
  }
  std::uint64_t xor_words() const {
    std::uint64_t total = emit_xors;
    for (const generation& g : gens) total += g.basis.xor_words;
    return total;
  }

  // The matrix's dense (coin) or sparse (Bernoulli rho) emission: a
  // uniform pick among the live generations first when grouped.
  std::optional<bitvec> emit(rng& r, bool dense, double rho) {
    const auto coin = [&] { return dense ? r.coin() : r.bernoulli(rho); };
    std::size_t live = 0;
    for (const generation& g : gens) live += g.basis.rows.empty() ? 0 : 1;
    if (live == 0) return std::nullopt;
    std::size_t pick = grouped ? static_cast<std::size_t>(r.below(live)) : 0;
    for (const generation& g : gens) {
      if (g.basis.rows.empty() || pick-- != 0) continue;
      const std::vector<std::uint64_t> sum = g.basis.combine(coin, &emit_xors);
      bitvec out(k + d);
      if (narrow) {
        copy_bits(out.data(), g.start, sum.data(), sum.size(), 0, g.width);
        copy_bits(out.data(), k, sum.data(), sum.size(), g.width, d);
      } else {
        std::copy(sum.begin(), sum.end(), out.data());
      }
      return out;
    }
    return std::nullopt;
  }
};

// Row widths of 1 to 9 words: every fixed-width instantiation and the
// run-time width.  Each total width runs twice, with a 32-token
// coefficient part and a long payload, and with 8-bit payloads behind a
// coefficient part that fills the row.
std::vector<std::pair<std::size_t, std::size_t>> width_shapes() {
  std::vector<std::pair<std::size_t, std::size_t>> shapes;  // (k, d)
  for (const std::size_t bits :
       {40u, 72u, 132u, 232u, 282u, 332u, 432u, 512u, 552u}) {
    shapes.emplace_back(32, bits - 32);
    shapes.emplace_back(bits - 8, 8);
  }
  return shapes;
}

// Random arrivals over k tokens [e_i | payload_i]: three in four combine
// the tokens of one generation window (gen_size 8, overlap 4), the rest
// the whole span, so every layout keeps some and drops some.
std::vector<bitvec> width_arrivals(std::size_t k, std::size_t d, rng& r,
                                   std::vector<bitvec>* payloads) {
  std::vector<bitvec> tokens;
  for (std::size_t i = 0; i < k; ++i) {
    bitvec p(d);
    p.randomize(r);
    payloads->push_back(p);
    bitvec t(k + d);
    t.set(i);
    t.copy_bits_from(p, 0, d, k);
    tokens.push_back(std::move(t));
  }
  std::vector<bitvec> arrivals;
  for (std::size_t a = 0; a < 3 * k / 2 + 16; ++a) {
    std::size_t lo = 0, hi = k;
    if (r.below(4) != 0) {
      lo = 8 * static_cast<std::size_t>(r.below((k + 7) / 8));
      hi = std::min(lo + 12, k);
    }
    bitvec row(k + d);
    for (std::size_t i = lo; i < hi; ++i) {
      if (r.coin()) row.xor_with(tokens[i]);
    }
    arrivals.push_back(std::move(row));
  }
  return arrivals;
}

TEST(row_kernels, bit_decoder_matches_a_plain_elimination_at_every_width) {
  rng r(2024);
  for (const auto& [k, d] : width_shapes()) {
    SCOPED_TRACE("k " + std::to_string(k) + " d " + std::to_string(d));
    std::vector<bitvec> payloads;
    const std::vector<bitvec> arrivals = width_arrivals(k, d, r, &payloads);
    bit_decoder dec(k, d);
    plain_basis ref;
    ref.coeff_bits = k;
    ref.row_bits = k + d;
    const std::size_t words = ref.words();
    for (std::size_t a = 0; a < arrivals.size(); ++a) {
      const bool innovative = dec.insert(arrivals[a]);
      const std::size_t before = ref.rows.size();
      ref.insert(arrivals[a].words(), [](std::size_t) {});
      ASSERT_EQ(innovative, ref.rows.size() > before) << "arrival " << a;
      ASSERT_EQ(dec.rank(), ref.rows.size()) << "arrival " << a;
      ASSERT_EQ(dec.decodable_count(), ref.singletons()) << "arrival " << a;
      ASSERT_EQ(dec.xor_word_ops(), ref.xor_words) << "arrival " << a;
      for (std::size_t i = 0; i < ref.rows.size(); ++i) {
        ASSERT_TRUE(std::equal(ref.rows[i].begin(), ref.rows[i].end(),
                               dec.basis().row(i)))
            << "arrival " << a << " row " << i;
      }
      ASSERT_TRUE(dec.in_span(arrivals[a])) << "arrival " << a;
    }
    ASSERT_EQ(dec.basis().row_words(), words);
    for (std::size_t i = 0; i < k; ++i) {
      if (dec.can_decode(i)) {
        EXPECT_EQ(dec.decode(i), payloads[i]);
      }
    }
  }
}

TEST(row_kernels, matrix_layouts_match_a_plain_elimination_at_every_width) {
  struct layout {
    const char* name;
    matrix_spec spec;
  };
  const auto spec = [](const char* sched, const char* dec,
                       std::size_t gen_size) {
    matrix_spec s;
    s.sched = sched;
    s.dec = dec;
    s.rho = 0.3;
    s.gen_size = gen_size;
    s.band_overlap = gen_size == 0 ? 0 : 4;
    return s;
  };
  const std::vector<layout> layouts = {
      {"span dense", spec("dense", "rref", 0)},
      {"span sparse", spec("sparse", "rref", 0)},
      {"grouped rref", spec("dense", "rref", 8)},
      {"grouped banded", spec("dense", "banded", 8)},
      {"grouped banded sparse", spec("sparse", "banded", 8)},
  };
  rng r(2025);
  for (const auto& [k, d] : width_shapes()) {
    std::vector<bitvec> payloads;
    const std::vector<bitvec> arrivals = width_arrivals(k, d, r, &payloads);
    for (const layout& l : layouts) {
      SCOPED_TRACE(std::string(l.name) + " k " + std::to_string(k) + " d " +
                   std::to_string(d));
      const std::unique_ptr<node_coder> coder =
          make_matrix_backend(l.spec)->make_node_coder(k, d);
      plain_coder ref(k, d, l.spec.gen_size, l.spec.band_overlap,
                      l.spec.dec == "banded");
      const bool dense = l.spec.sched == "dense";
      for (std::size_t a = 0; a < arrivals.size(); ++a) {
        coder->insert(arrivals[a]);
        ref.insert(arrivals[a]);
        ASSERT_EQ(coder->rank(), ref.rank()) << "arrival " << a;
        ASSERT_EQ(coder->decode_progress(), ref.decoded_count)
            << "arrival " << a;
        ASSERT_EQ(coder->xor_word_ops(), ref.xor_words()) << "arrival " << a;
        for (std::size_t i = 0; i < k; ++i) {
          ASSERT_EQ(coder->can_decode(i), ref.decoded[i])
              << "arrival " << a << " token " << i;
        }
        if (a % 8 != 7 && a + 1 != arrivals.size()) continue;
        // The emission at a fixed seed: the same draws, the same row.
        rng draw(a), ref_draw(a);
        const std::optional<bitvec> got = coder->make_combination(draw);
        const std::optional<bitvec> want = ref.emit(ref_draw, dense, 0.3);
        ASSERT_EQ(got.has_value(), want.has_value()) << "arrival " << a;
        if (got) {
          ASSERT_EQ(*got, *want) << "arrival " << a;
        }
        ASSERT_EQ(draw(), ref_draw()) << "arrival " << a;
        ASSERT_EQ(coder->xor_word_ops(), ref.xor_words()) << "arrival " << a;
      }
      for (std::size_t i = 0; i < k; ++i) {
        if (coder->can_decode(i)) {
          EXPECT_EQ(coder->decode(i), payloads[i]);
        }
      }
    }
  }
}

}  // namespace
}  // namespace ncdn
