// Word-packed vector over GF(2).
//
// This is the representation of coded packets for q = 2 (paper §5.1: "take
// the natural token representation as a bit sequence ... and replace linear
// combinations by XORs").  XOR of rows is word-parallel, which is what makes
// laptop-scale simulation of n-node x k-token instances cheap.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/bits.hpp"
#include "core/contracts.hpp"
#include "core/rng.hpp"
#include "linalg/row_block.hpp"

namespace ncdn {

class bitvec {
 public:
  bitvec() = default;
  explicit bitvec(std::size_t bits)
      : bits_(bits), words_(words_for_bits(bits), 0) {}

  /// Adopts `storage` as the word buffer (pool path, core/arena.hpp): the
  /// buffer is resized and zero-filled, so the result is indistinguishable
  /// from a fresh bitvec(bits) — only the allocation is saved.
  bitvec(std::size_t bits, std::vector<std::uint64_t>&& storage)
      : bits_(bits), words_(std::move(storage)) {
    words_.assign(words_for_bits(bits), 0);
  }

  /// Moves the word buffer out (for recycling into a pool), leaving this
  /// vector empty.
  std::vector<std::uint64_t> release_storage() && noexcept {
    bits_ = 0;
    return std::move(words_);
  }

  std::size_t size() const noexcept { return bits_; }
  bool empty() const noexcept { return bits_ == 0; }

  bool get(std::size_t i) const noexcept {
    NCDN_EXPECTS(i < bits_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  void set(std::size_t i, bool v = true) noexcept {
    NCDN_EXPECTS(i < bits_);
    const std::uint64_t mask = 1ULL << (i & 63);
    if (v) {
      words_[i >> 6] |= mask;
    } else {
      words_[i >> 6] &= ~mask;
    }
  }

  void flip(std::size_t i) noexcept {
    NCDN_EXPECTS(i < bits_);
    words_[i >> 6] ^= 1ULL << (i & 63);
  }

  /// this ^= other (vector addition over GF(2)).
  void xor_with(const bitvec& other) noexcept {
    NCDN_EXPECTS(bits_ == other.bits_);
    xor_row(words_.data(), other.words_.data(), words_.size());
  }

  /// Index of first set bit, or size() if none.
  std::size_t first_set() const noexcept {
    return first_set_bit(words_.data(), bits_);
  }

  /// Index of first set bit at position >= from, or size() if none.
  std::size_t first_set_from(std::size_t from) const noexcept {
    if (from >= bits_) return bits_;
    std::size_t w = from >> 6;
    std::uint64_t cur = words_[w] & (~0ULL << (from & 63));
    while (true) {
      if (cur != 0) {
        return (w << 6) + static_cast<std::size_t>(std::countr_zero(cur));
      }
      if (++w == words_.size()) return bits_;
      cur = words_[w];
    }
  }

  bool any() const noexcept {
    for (std::uint64_t w : words_) {
      if (w != 0) return true;
    }
    return false;
  }

  std::size_t popcount() const noexcept {
    std::size_t c = 0;
    for (std::uint64_t w : words_) {
      c += static_cast<std::size_t>(std::popcount(w));
    }
    return c;
  }

  /// Number of set bits in [0, upto) — e.g. the coefficient part of a
  /// [coefficients | payload] row, without slicing it out.
  std::size_t popcount_below(std::size_t upto) const noexcept {
    NCDN_EXPECTS(upto <= bits_);
    std::size_t c = 0;
    const std::size_t full = upto >> 6;
    for (std::size_t w = 0; w < full; ++w) {
      c += static_cast<std::size_t>(std::popcount(words_[w]));
    }
    const std::size_t tail = upto & 63;
    if (tail != 0) {
      c += static_cast<std::size_t>(
          std::popcount(words_[full] & ((1ULL << tail) - 1)));
    }
    return c;
  }

  /// Dot product over GF(2): parity of AND, word-parallel (dot_words).
  /// Sizes may differ: the shorter vector is treated as zero-extended, so
  /// dotting a k-bit mask against a longer [coefficients | payload] row
  /// needs no slicing.  (Bits past size() are zero by invariant, so the
  /// overlap word at the boundary is exact.)
  bool dot(const bitvec& other) const noexcept {
    return dot_words(words_.data(), other.words_.data(),
                     std::min(words_.size(), other.words_.size()));
  }

  /// Fill all bits uniformly at random (tail bits beyond size stay zero).
  void randomize(rng& r) noexcept {
    for (auto& w : words_) w = r();
    mask_tail();
  }

  /// Copies bits [src_begin, src_begin+len) of `src` into positions starting
  /// at dst_begin of this vector.  Word-parallel (shift/mask, up to 64 bits
  /// per step) — this sits under every slice() and rlnc_session::seed, where
  /// the old bit-at-a-time loop dominated.  `src` may be *this only when the
  /// two ranges do not overlap.
  void copy_bits_from(const bitvec& src, std::size_t src_begin,
                      std::size_t len, std::size_t dst_begin) noexcept {
    NCDN_EXPECTS(src_begin + len <= src.size());
    NCDN_EXPECTS(dst_begin + len <= bits_);
    copy_bits(words_.data(), dst_begin, src.words_.data(), src.words_.size(),
              src_begin, len);
  }

  /// Extract bits [begin, begin+len) as a new bitvec.
  bitvec slice(std::size_t begin, std::size_t len) const {
    bitvec out(len);
    out.copy_bits_from(*this, begin, len, 0);
    return out;
  }

  friend bool operator==(const bitvec& a, const bitvec& b) noexcept {
    return a.bits_ == b.bits_ && a.words_ == b.words_;
  }

  const std::vector<std::uint64_t>& words() const noexcept { return words_; }
  /// The word buffer, for the raw-word row kernels of linalg/row_block.hpp.
  std::uint64_t* data() noexcept { return words_.data(); }
  const std::uint64_t* data() const noexcept { return words_.data(); }

  /// 64-bit mixing hash (used by set-equality checks in the counting app).
  std::uint64_t hash() const noexcept {
    std::uint64_t h = 0xcbf29ce484222325ULL ^ bits_;
    for (std::uint64_t w : words_) {
      h ^= w;
      h *= 0x100000001b3ULL;
      h ^= h >> 29;
    }
    return h;
  }

 private:
  void mask_tail() noexcept {
    const std::size_t tail = bits_ & 63;
    if (tail != 0 && !words_.empty()) {
      words_.back() &= (1ULL << tail) - 1;
    }
  }

  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace ncdn
