// GF(p) for the Mersenne prime p = 2^61 - 1.
//
// The derandomization results (paper §6) require field sizes of n^Ω(k) so
// that a union bound over ~exp(nk log n) adversarial "witnesses" leaves
// negligible failure probability.  At the scales the benchmark harness
// simulates, q = 2^61 - 1 makes the bound numerically vanish (see
// README, Substitutions); reduction modulo a Mersenne prime costs a
// shift and an add, so coefficients stay cheap.
#pragma once

#include <cstdint>

#include "core/contracts.hpp"
#include "core/rng.hpp"

namespace ncdn {

struct mersenne61 {
  using value_type = std::uint64_t;
  static constexpr std::uint64_t p = (1ULL << 61) - 1;
  static constexpr std::uint64_t order = p;

  static constexpr value_type zero() noexcept { return 0; }
  static constexpr value_type one() noexcept { return 1; }

  static constexpr value_type reduce(std::uint64_t x) noexcept {
    x = (x & p) + (x >> 61);
    return x >= p ? x - p : x;
  }

  static constexpr value_type add(value_type a, value_type b) noexcept {
    std::uint64_t s = a + b;  // < 2^62, no overflow
    return s >= p ? s - p : s;
  }

  static constexpr value_type sub(value_type a, value_type b) noexcept {
    return a >= b ? a - b : a + p - b;
  }

  static constexpr value_type neg(value_type a) noexcept {
    return a == 0 ? 0 : p - a;
  }

  static constexpr value_type mul(value_type a, value_type b) noexcept {
    __extension__ typedef unsigned __int128 u128;
    const u128 prod = static_cast<u128>(a) * static_cast<u128>(b);
    const std::uint64_t lo = static_cast<std::uint64_t>(prod) & p;
    const std::uint64_t hi = static_cast<std::uint64_t>(prod >> 61);
    std::uint64_t s = lo + hi;
    if (s >= p) s -= p;
    return s;
  }

  static constexpr value_type pow(value_type base, std::uint64_t e) noexcept {
    value_type acc = 1;
    while (e != 0) {
      if (e & 1u) acc = mul(acc, base);
      base = mul(base, base);
      e >>= 1;
    }
    return acc;
  }

  static value_type inv(value_type a) noexcept {
    NCDN_EXPECTS(a != 0);
    return pow(a, p - 2);  // Fermat
  }

  static value_type uniform(rng& r) noexcept { return r.below(p); }
  static value_type uniform_nonzero(rng& r) noexcept {
    return 1 + r.below(p - 1);
  }
};

}  // namespace ncdn
