// Tests for bitvec, batch GF(2) elimination, dense matrices, and the
// incremental decoders (system S2) — including cross-checks between the
// packed GF(2) path and the generic-field reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
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

}  // namespace
}  // namespace ncdn
