// Incremental (online) RLNC decoders.
//
// Every node maintains one decoder.  Each received coded packet is a row
// [coefficients | payload]; insert() performs one step of online Gaussian
// elimination, keeps the store in reduced row echelon form, and reports
// whether the packet was *innovative* (increased the rank).  Decoding is a
// lookup once the coefficient rank reaches k: the RREF rows are then
// [e_i | token_i].
//
// Two implementations:
//   bit_decoder        — q = 2, word-packed rows (the fast path; §5.1 takes
//                        q = 2 throughout most of the paper).
//   field_decoder<F>   — any finite_field F (GF(2^k) for hop-failure-rate
//                        experiments, mersenne61 for §6 derandomization).
//
// bit_decoder keeps its basis in one row_block (linalg/row_block.hpp):
// rows back to back in one buffer, each arrival copied into the staging
// slot past the last row and eliminated there.  Elimination has no branch
// per basis row.  The forward pass adds exactly the rows whose pivot
// columns the arrival holds: the set bits of (arrival & pivot mask), each
// mapped to its row through pivot_row_ (in RREF no row carries another
// row's pivot, so that set is read once).  Back-substitution marks the
// rows holding the new pivot 64 at a time into a word, then XORs them.  A
// row is decodable when no coefficient bit follows its pivot, an OR over
// words; the popcount it replaces is a libgcc call per word in a build
// without -mpopcnt.  The basis and its row list stop growing at coeff_dim
// rows (the rank bound), and both index arrays hold 32-bit entries.
//
// Messages in the paper are random linear combinations of *all received
// messages*; combining the decoder's basis rows spans the same subspace and
// the projection analysis (Lemma 5.2) applies verbatim to any random
// combination with independent uniform coefficients over a spanning set.
// Recoding from the basis is also what practical RLNC implementations do.
// bit_decoder only eliminates: the GF(2) draws over its basis are the
// encoder schedules of coding/matrix.hpp.
#pragma once

#include <algorithm>
#include <bit>
#include <optional>
#include <vector>

#include "core/contracts.hpp"
#include "gf/field.hpp"
#include "linalg/bitvec.hpp"
#include "linalg/row_block.hpp"

namespace ncdn {

class bit_decoder {
 public:
  bit_decoder() = default;
  /// Precondition: coeff_dim < pivot_index_bound (32-bit indices).
  bit_decoder(std::size_t coeff_dim, std::size_t payload_bits)
      : coeff_dim_(checked_dim(coeff_dim)),
        payload_bits_(payload_bits),
        rows_(coeff_dim + payload_bits, coeff_dim),
        pivot_row_(coeff_dim, npos),
        pivot_mask_(words_for_bits(coeff_dim), 0) {}

  std::size_t coeff_dim() const noexcept { return coeff_dim_; }
  std::size_t payload_bits() const noexcept { return payload_bits_; }
  std::size_t row_bits() const noexcept { return coeff_dim_ + payload_bits_; }
  std::size_t rank() const noexcept { return rows_.size(); }
  bool complete() const noexcept { return rank() == coeff_dim_; }

  /// Inserts a coded row; returns true iff it was innovative.
  /// Precondition: a row whose coefficient part eliminates to zero must
  /// eliminate to the all-zero row (payloads are linear in coefficients);
  /// violating rows indicate corrupted input and trip a contract.
  bool insert(const bitvec& row) {
    NCDN_EXPECTS(row.size() == row_bits());
    const std::size_t w = rows_.row_words();
    std::uint64_t* s = rows_.stage(row.data());
    std::uint64_t xors = forward_reduce(s);
    const std::size_t p = first_set_bit(s, row_bits());
    if (p >= coeff_dim_) {
      NCDN_ASSERT(p == row_bits());  // consistency: no pivot inside payload
      xor_words_ += xors * w;
      return false;
    }
    // Clear column p from the rows holding it, counting the rows left with
    // their pivot alone so decodable_count() stays exact.
    std::size_t singletons = 0;
    xors += back_substitute(rows_, s, p, pivots_.data(), coeff_dim_,
                            [&](std::size_t) { ++singletons; });
    decodable_ += singletons;
    xor_words_ += xors * w;
    NCDN_AUDIT(pivot_row_[p] == npos);  // pivot columns are claimed once
    pivot_row_[p] = static_cast<pivot_index>(rows_.size());
    pivot_mask_[p >> 6] |= 1ULL << (p & 63);
    if (pivots_.size() == pivots_.capacity()) {
      // Double, but never past the rank bound (push_back would).
      pivots_.reserve(std::min(std::max<std::size_t>(2 * pivots_.size(), 1),
                               coeff_dim_));
    }
    pivots_.push_back(static_cast<pivot_index>(p));
    rows_.commit(rows_.size());
    NCDN_AUDIT(audit_rref());
    NCDN_AUDIT(audit_decodable());
    return true;
  }

  /// True iff some basis row's coefficient part is non-orthogonal to mu
  /// (Definition 5.1 "senses"; equivalent over the received span).
  /// Word-parallel (dot_words) — mu is coeff_dim bits, so the dot never
  /// touches a row's payload words.
  bool senses(const bitvec& mu) const {
    NCDN_EXPECTS(mu.size() == coeff_dim_);
    const std::size_t mw = mu.words().size();
    for (std::size_t i = 0; i < rank(); ++i) {
      if (dot_words(mu.data(), rows_.row(i), mw)) return true;
    }
    return false;
  }

  /// True iff token i is decodable right now (e_i in the coefficient span).
  /// In RREF: iff the row pivoting on i has no other coefficient entries,
  /// found through the pivot->row index — no O(rank) scan, no slice.
  bool can_decode(std::size_t i) const {
    NCDN_EXPECTS(i < coeff_dim_);
    const pivot_index r = pivot_row_[i];
    if (r == npos) return false;
    return no_bits_after(rows_.row(r), i, coeff_dim_);
  }

  /// Payload of token i; requires can_decode(i).  (complete() implies every
  /// token is decodable, so the historical decode-after-completion callers
  /// satisfy this unchanged; per-token early decode is now legal too.)
  bitvec decode(std::size_t i) const {
    NCDN_EXPECTS(can_decode(i));
    bitvec out(payload_bits_);
    copy_bits(out.data(), 0, rows_.row(pivot_row_[i]), rows_.row_words(),
              coeff_dim_, payload_bits_);
    return out;
  }

  /// True iff `row` is already in the received span (non-mutating).
  bool in_span(bitvec row) const {
    NCDN_EXPECTS(row.size() == row_bits());
    forward_reduce(row.data());
    return !row.any();
  }

  /// The reduced basis, one row per pivot in insertion order.
  const row_block& basis() const noexcept { return rows_; }
  /// Copy of basis row i as a bitvec.
  bitvec basis_row(std::size_t i) const {
    bitvec out(row_bits());
    std::copy(rows_.row(i), rows_.row(i) + rows_.row_words(), out.data());
    return out;
  }

  /// Number of tokens currently decodable (singleton RREF rows).
  /// Maintained incrementally by insert — O(1) to read, monotone, and
  /// == coeff_dim iff complete() — so per-round decode-delay accounting
  /// never scans the basis.
  std::size_t decodable_count() const noexcept { return decodable_; }

  /// Cumulative 64-bit XOR word-operations spent in Gaussian elimination
  /// (insert) — the decode-cost axis the sparse and generation backends
  /// trade rounds against.
  std::uint64_t xor_word_ops() const noexcept { return xor_words_; }

  void reset(std::size_t coeff_dim, std::size_t payload_bits) {
    *this = bit_decoder(coeff_dim, payload_bits);
  }

 private:
  static constexpr pivot_index npos = ~pivot_index{0};

  static std::size_t checked_dim(std::size_t coeff_dim) {
    NCDN_EXPECTS(coeff_dim < pivot_index_bound);  // before any allocation
    return coeff_dim;
  }

  /// Forward pass over a row_bits()-bit row: adds the basis rows whose
  /// pivot columns it holds and returns how many.  In RREF no row carries
  /// another row's pivot, so those rows are the set bits of (row & pivot
  /// mask), read a word at a time: adding a row clears its own pivot bit
  /// and touches no other pivot column.
  std::uint64_t forward_reduce(std::uint64_t* row) const {
    const std::size_t w = rows_.row_words();
    const std::uint64_t* base = rows_.data();
    const pivot_index* pivot_row = pivot_row_.data();
    const std::uint64_t* mask = pivot_mask_.data();
    const std::size_t mask_words = pivot_mask_.size();
    std::uint64_t added = 0;
    for (std::size_t cw = 0; cw < mask_words; ++cw) {
      for (std::uint64_t hit = row[cw] & mask[cw]; hit != 0; hit &= hit - 1) {
        const std::size_t col =
            (cw << 6) + static_cast<std::size_t>(std::countr_zero(hit));
        xor_row(row, base + pivot_row[col] * w, w);
        ++added;
      }
    }
    return added;
  }

  /// Full O(rank^2) RREF audit: every stored row leads with its pivot,
  /// the pivot->row index and the pivot mask agree, and no pivot column
  /// appears in any other row.  insert() maintains this incrementally; the
  /// audit build re-derives it from scratch after every insertion.
  bool audit_rref() const {
    std::size_t mask_bits = 0;
    for (const std::uint64_t m : pivot_mask_) {
      mask_bits += static_cast<std::size_t>(std::popcount(m));
    }
    if (mask_bits != rank()) return false;
    for (std::size_t i = 0; i < rank(); ++i) {
      const std::size_t p = pivots_[i];
      if (first_set_bit(rows_.row(i), row_bits()) != p) return false;
      if (pivot_row_[p] != i) return false;
      if (((pivot_mask_[p >> 6] >> (p & 63)) & 1) == 0) return false;
      for (std::size_t j = 0; j < rank(); ++j) {
        if (j != i && rows_.get(j, p)) return false;
      }
    }
    return true;
  }

  /// Audit rebuild of the incremental decodable counter: the per-column
  /// can_decode scan must agree with the transition counting in insert.
  bool audit_decodable() const {
    std::size_t count = 0;
    for (std::size_t i = 0; i < coeff_dim_; ++i) {
      if (can_decode(i)) ++count;
    }
    return count == decodable_;
  }

  std::size_t coeff_dim_ = 0;
  std::size_t payload_bits_ = 0;
  row_block rows_;  // maintained in RREF (insertion order, not by pivot)
  std::vector<pivot_index> pivots_;     // row -> pivot column
  std::vector<pivot_index> pivot_row_;  // pivot column -> row
  std::vector<std::uint64_t> pivot_mask_;  // bit c set iff c is a pivot
  std::size_t decodable_ = 0;  // singleton rows (decodable tokens)
  std::uint64_t xor_words_ = 0;
};

/// Generic-field incremental decoder; rows are symbol vectors
/// [k coefficients | payload symbols].
template <finite_field F>
class field_decoder {
 public:
  using value_type = typename F::value_type;
  using row_type = std::vector<value_type>;

  field_decoder() = default;
  field_decoder(std::size_t coeff_dim, std::size_t payload_symbols)
      : coeff_dim_(coeff_dim), payload_symbols_(payload_symbols) {}

  std::size_t coeff_dim() const noexcept { return coeff_dim_; }
  std::size_t payload_symbols() const noexcept { return payload_symbols_; }
  std::size_t row_symbols() const noexcept {
    return coeff_dim_ + payload_symbols_;
  }
  std::size_t rank() const noexcept { return rows_.size(); }
  bool complete() const noexcept { return rank() == coeff_dim_; }

  bool insert(row_type row) {
    NCDN_EXPECTS(row.size() == row_symbols());
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const value_type c = row[pivots_[i]];
      if (c != F::zero()) add_scaled(row, rows_[i], F::neg(c));
    }
    std::size_t p = 0;
    while (p < coeff_dim_ && row[p] == F::zero()) ++p;
    if (p == coeff_dim_) {
      for (std::size_t s = coeff_dim_; s < row.size(); ++s) {
        NCDN_ASSERT(row[s] == F::zero());
      }
      return false;
    }
    scale(row, F::inv(row[p]));
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const value_type c = rows_[i][p];
      if (c != F::zero()) add_scaled(rows_[i], row, F::neg(c));
    }
    rows_.push_back(std::move(row));
    pivots_.push_back(p);
    NCDN_AUDIT(audit_rref());
    return true;
  }

  /// Random combination of the basis with uniform coefficients.
  std::optional<row_type> random_combination(rng& r) const {
    if (rows_.empty()) return std::nullopt;
    row_type out(row_symbols(), F::zero());
    for (const row_type& row : rows_) {
      const value_type c = F::uniform(r);
      if (c != F::zero()) add_scaled(out, row, c);
    }
    return out;
  }

  /// Combination with caller-supplied coefficients (advice-matrix path, §6).
  row_type combine(const std::vector<value_type>& coeffs) const {
    NCDN_EXPECTS(coeffs.size() >= rows_.size());
    row_type out(row_symbols(), F::zero());
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (coeffs[i] != F::zero()) add_scaled(out, rows_[i], coeffs[i]);
    }
    return out;
  }

  row_type decode(std::size_t i) const {
    NCDN_EXPECTS(complete());
    NCDN_EXPECTS(i < coeff_dim_);
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      if (pivots_[r] == i) {
        return row_type(
            rows_[r].begin() + static_cast<std::ptrdiff_t>(coeff_dim_),
            rows_[r].end());
      }
    }
    NCDN_ASSERT(false);
    return {};
  }

  /// True iff `row` is already in the received span (non-mutating).
  bool in_span(row_type row) const {
    NCDN_EXPECTS(row.size() == row_symbols());
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const value_type c = row[pivots_[i]];
      if (c != F::zero()) add_scaled(row, rows_[i], F::neg(c));
    }
    for (const value_type& v : row) {
      if (v != F::zero()) return false;
    }
    return true;
  }

  const std::vector<row_type>& basis() const noexcept { return rows_; }

 private:
  /// Audit-build analogue of bit_decoder::audit_rref over F: unit pivot
  /// entries, distinct pivot columns, zeros elsewhere in each pivot
  /// column.
  bool audit_rref() const {
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (rows_[i][pivots_[i]] != F::one()) return false;
      for (std::size_t j = 0; j < rows_.size(); ++j) {
        if (j != i && rows_[j][pivots_[i]] != F::zero()) return false;
      }
    }
    return true;
  }

  static void add_scaled(row_type& dst, const row_type& src, value_type s) {
    for (std::size_t i = 0; i < dst.size(); ++i) {
      dst[i] = F::add(dst[i], F::mul(s, src[i]));
    }
  }
  static void scale(row_type& row, value_type s) {
    for (auto& v : row) v = F::mul(v, s);
  }

  std::size_t coeff_dim_ = 0;
  std::size_t payload_symbols_ = 0;
  std::vector<row_type> rows_;
  std::vector<std::size_t> pivots_;
};

}  // namespace ncdn
