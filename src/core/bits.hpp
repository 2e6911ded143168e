// Small bit-manipulation helpers shared by the packed GF(2) linear algebra
// and the message-size accounting.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace ncdn {

/// Number of 64-bit words needed to hold `bits` bits.
constexpr std::size_t words_for_bits(std::size_t bits) noexcept {
  return (bits + 63) / 64;
}

/// ceil(log2(x)) for x >= 1; log2ceil(1) == 0.
constexpr unsigned log2ceil(std::uint64_t x) noexcept {
  return x <= 1 ? 0u
                : static_cast<unsigned>(64 - std::countl_zero(x - 1));
}

/// Number of bits needed to represent values in [0, n), at least 1.
constexpr unsigned bits_for(std::uint64_t n) noexcept {
  return n <= 2 ? 1u : log2ceil(n);
}

/// FNV-1a over a byte range (stable name-hashing, e.g. per-scenario seed
/// derivation).  Not cryptographic.
constexpr std::uint64_t fnv1a(const char* data, std::size_t len) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) noexcept {
  return (a + b - 1) / b;
}

}  // namespace ncdn
