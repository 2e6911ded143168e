// Contiguous block of equal-width GF(2) rows, and the raw-word row kernels.
//
// Every reduced basis the GF(2) engines keep (bit_decoder's full span, each
// generation of the grouped layout in coding/matrix.cpp) is a
// row_block: rows of row_words() 64-bit words stored back to back in one
// std::vector, so elimination and combination walk one allocation instead
// of chasing a heap pointer per row.  One more slot sits past the last
// row: an arrival is copied there (stage), eliminated in place against the
// rows, and either dropped (the next stage overwrites it) or committed at
// a chosen position.  A block knows the most rows it can ever hold (a
// basis's rank bound: coeff_dim for bit_decoder, the window width for a
// generation).  It grows by doubling from empty, since a full-span basis
// at k = 65536 would be 512 MiB up front, but the last step lands on
// exactly that bound plus the staging slot, not the next power of two.
//
// xor_row is the one XOR kernel of the packed GF(2) code (bitvec::xor_with
// calls it too), and dot_words the one dot product (bitvec::dot and
// bit_decoder::senses call it).  The word count is an argument, not a
// member read inside the loop: std::size_t is std::uint64_t here, so a
// count loaded through `this` could alias the stores and would keep the
// loop from vectorizing.  back_substitute is the one back-substitution
// step, shared by bit_decoder and the grouped layout.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/bits.hpp"
#include "core/contracts.hpp"

namespace ncdn {

/// Row and pivot-column index of a GF(2) basis.  32 bits halve the index
/// arrays; a basis's coefficient width must stay below pivot_index_bound.
using pivot_index = std::uint32_t;
inline constexpr std::size_t pivot_index_bound = std::size_t{1} << 32;

/// dst ^= src over `words` 64-bit words (vector addition over GF(2)).
inline void xor_row(std::uint64_t* dst, const std::uint64_t* src,
                    std::size_t words) noexcept {
  for (std::size_t w = 0; w < words; ++w) dst[w] ^= src[w];
}

/// Parity of the AND of the `words`-word rows a and b: their dot product
/// over GF(2) (AND the words, XOR-fold, popcount parity).
inline bool dot_words(const std::uint64_t* a, const std::uint64_t* b,
                      std::size_t words) noexcept {
  std::uint64_t acc = 0;
  for (std::size_t w = 0; w < words; ++w) acc ^= a[w] & b[w];
  return (std::popcount(acc) & 1) != 0;
}

/// Copies bits [src_begin, src_begin + len) of the `src_words`-word row
/// `src` to positions starting at dst_begin of `dst`, leaving every other
/// bit of `dst` alone.  Word-parallel (shift/mask, up to 64 bits per
/// step).  `src` may be `dst` only when the two ranges do not overlap.
inline void copy_bits(std::uint64_t* dst, std::size_t dst_begin,
                      const std::uint64_t* src, std::size_t src_words,
                      std::size_t src_begin, std::size_t len) noexcept {
  std::size_t sbit = src_begin;
  std::size_t dbit = dst_begin;
  std::size_t remaining = len;
  while (remaining > 0) {
    const std::size_t dw = dbit >> 6;
    const std::size_t doff = dbit & 63;
    const std::size_t chunk = std::min<std::size_t>(remaining, 64 - doff);
    // Gather up to 64 source bits starting at sbit (bits past the last
    // source word read as zero; only the low `chunk` bits are used).
    const std::size_t sw = sbit >> 6;
    const std::size_t soff = sbit & 63;
    std::uint64_t v = src[sw] >> soff;
    if (soff != 0 && sw + 1 < src_words) v |= src[sw + 1] << (64 - soff);
    const std::uint64_t keep = chunk == 64 ? ~0ULL : ((1ULL << chunk) - 1);
    dst[dw] = (dst[dw] & ~(keep << doff)) | ((v & keep) << doff);
    sbit += chunk;
    dbit += chunk;
    remaining -= chunk;
  }
}

/// True iff `row` has no set bit in (pivot, upto).  On a reduced row that
/// leads with `pivot` and carries its coefficients in [0, upto), that is
/// the decodability test "the coefficient part is e_pivot" — an OR over
/// the words from the pivot on, where a popcount of the whole coefficient
/// part would cost a libgcc call per word in a build without -mpopcnt.
inline bool no_bits_after(const std::uint64_t* row, std::size_t pivot,
                          std::size_t upto) noexcept {
  NCDN_EXPECTS(pivot < upto);
  const std::size_t first = pivot >> 6;
  const std::size_t last = (upto - 1) >> 6;
  std::uint64_t acc = 0;
  for (std::size_t w = first + 1; w < last; ++w) acc |= row[w];
  // The pivot's word keeps the bits above it, the last word the bits
  // below `upto` (a payload may share it); they may be the same word.
  const std::uint64_t head = row[first] & (~1ULL << (pivot & 63));
  const std::uint64_t tail_mask =
      (upto & 63) == 0 ? ~0ULL : ~(~0ULL << (upto & 63));
  acc |= first == last ? head & tail_mask : head | (row[last] & tail_mask);
  return acc == 0;
}

/// Index of the first set bit of the `bits`-bit row, or `bits` if none.
inline std::size_t first_set_bit(const std::uint64_t* row,
                                 std::size_t bits) noexcept {
  const std::size_t words = words_for_bits(bits);
  for (std::size_t w = 0; w < words; ++w) {
    if (row[w] != 0) {
      return (w << 6) + static_cast<std::size_t>(std::countr_zero(row[w]));
    }
  }
  return bits;
}

/// Calls act(i) for every i in [0, n) with mark(i) true, in increasing i.
/// mark runs once per index, in index order, 64 indices at a time, before
/// act runs on any of those 64: the marks collect into a word without a
/// branch, and act then visits the set bits.  Elimination marks the rows
/// holding a bit and then XORs them; emission draws every row's coin
/// (the rng stream of a coin-then-XOR loop) and then XORs the picked rows.
template <class Mark, class Act>
void for_each_marked(std::size_t n, const Mark& mark, const Act& act) {
  for (std::size_t lo = 0; lo < n; lo += 64) {
    const std::size_t hi = std::min(n, lo + 64);
    std::uint64_t marks = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      marks |= static_cast<std::uint64_t>(mark(i)) << (i - lo);
    }
    for (; marks != 0; marks &= marks - 1) {
      act(lo + static_cast<std::size_t>(std::countr_zero(marks)));
    }
  }
}

class row_block {
 public:
  row_block() = default;
  row_block(std::size_t row_bits, std::size_t max_rows)
      : row_bits_(row_bits),
        row_words_(words_for_bits(row_bits)),
        max_rows_(max_rows) {}

  std::size_t row_bits() const noexcept { return row_bits_; }
  std::size_t row_words() const noexcept { return row_words_; }
  /// Committed rows (the staging slot is not counted).
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  /// Row slots allocated, the staging slot included: never more than
  /// max_rows + 1.
  std::size_t capacity() const noexcept {
    return row_words_ == 0 ? 0 : words_.capacity() / row_words_;
  }

  const std::uint64_t* row(std::size_t i) const noexcept {
    NCDN_EXPECTS(i < size_);
    return words_.data() + i * row_words_;
  }
  std::uint64_t* row(std::size_t i) noexcept {
    NCDN_EXPECTS(i < size_);
    return words_.data() + i * row_words_;
  }

  /// Row i starts at data() + i * row_words() (the staging slot at
  /// i == size()): the unchecked view the elimination loops index.
  std::uint64_t* data() noexcept { return words_.data(); }
  const std::uint64_t* data() const noexcept { return words_.data(); }

  bool get(std::size_t i, std::size_t bit) const noexcept {
    NCDN_EXPECTS(bit < row_bits_);
    return (row(i)[bit >> 6] >> (bit & 63)) & 1u;
  }

  /// Opens the staging slot past the last row, zero-filled, and returns
  /// it.  Row pointers taken before this call are invalidated (the block
  /// may grow); pointers taken after it stay valid until the next stage.
  std::uint64_t* stage() {
    std::uint64_t* slot = staging_slot();
    std::fill(slot, slot + row_words_, 0);
    return slot;
  }

  /// Opens the staging slot holding a copy of the row_words()-word `src`.
  std::uint64_t* stage(const std::uint64_t* src) {
    std::uint64_t* slot = staging_slot();
    std::copy(src, src + row_words_, slot);
    return slot;
  }

  /// Commits the staged row as row `pos` (pos <= size()): rows pos.. move
  /// up by one.  Appending (pos == size()) moves nothing.
  void commit(std::size_t pos) {
    NCDN_EXPECTS(pos <= size_);
    NCDN_EXPECTS(size_ < max_rows_);
    NCDN_EXPECTS(words_.size() >= (size_ + 1) * row_words_);
    if (pos < size_) {
      const auto base = words_.begin();
      std::rotate(base + static_cast<std::ptrdiff_t>(pos * row_words_),
                  base + static_cast<std::ptrdiff_t>(size_ * row_words_),
                  base + static_cast<std::ptrdiff_t>((size_ + 1) * row_words_));
    }
    ++size_;
  }

  /// Allocates all max_rows rows plus the staging slot at once.
  void reserve_all() { words_.reserve((max_rows_ + 1) * row_words_); }

 private:
  std::uint64_t* staging_slot() {
    const std::size_t end = (size_ + 1) * row_words_;
    if (words_.size() < end) {
      // Double as std::vector would, but never past the rank bound: a
      // resize past capacity would pick the doubled size itself.
      if (words_.capacity() < end) {
        words_.reserve(std::min(std::max(2 * words_.capacity(), end),
                                (max_rows_ + 1) * row_words_));
      }
      words_.resize(end);
    }
    return words_.data() + size_ * row_words_;
  }

  std::size_t row_bits_ = 0;
  std::size_t row_words_ = 0;
  std::size_t max_rows_ = 0;
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;  // size_ rows, then the staging slot
};

/// Back-substitution of one online elimination step.  `staged` is an
/// arrival already reduced against every row of `block`, leading with
/// pivot column p < coeff_bits; it is added to each committed row holding
/// p, so column p is left in the staged row alone.  The rows holding p are
/// marked 64 at a time and then XORed (for_each_marked), with no branch
/// per row.  pivots[i] is row i's pivot column.  Calls on_singleton(c) for
/// the pivot column c of every row left with no coefficient bit after its
/// pivot, the staged row (c = p) included; a singleton never loses that
/// status, since no later row carries its pivot column, so set-once
/// bookkeeping stays exact.  Returns the number of rows XORed.
template <class OnSingleton>
std::uint64_t back_substitute(row_block& block, const std::uint64_t* staged,
                              std::size_t p, const pivot_index* pivots,
                              std::size_t coeff_bits,
                              const OnSingleton& on_singleton) {
  const std::size_t w = block.row_words();
  std::uint64_t* base = block.data();
  const std::size_t pw = p >> 6;
  const std::size_t pb = p & 63;
  std::uint64_t xors = 0;
  const auto holds_p = [&](std::size_t i) {
    return (base[i * w + pw] >> pb) & 1;
  };
  const auto clear_p = [&](std::size_t i) {
    std::uint64_t* dst = base + i * w;
    xor_row(dst, staged, w);
    ++xors;
    if (no_bits_after(dst, pivots[i], coeff_bits)) on_singleton(pivots[i]);
  };
  for_each_marked(block.size(), holds_p, clear_p);
  if (no_bits_after(staged, p, coeff_bits)) on_singleton(p);
  return xors;
}

}  // namespace ncdn
