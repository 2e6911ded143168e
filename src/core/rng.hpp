// Deterministic, fast pseudo-random number generation.
//
// The simulator needs (a) reproducible runs given a seed, (b) independent
// per-node streams so that protocol randomness does not depend on iteration
// order, and (c) speed, because random linear network coding draws one
// coefficient per received vector per round.
//
// We use xoshiro256** (Blackman & Vigna) seeded via splitmix64, the
// standard recommendation for seeding.  The engine satisfies
// std::uniform_random_bit_generator so it composes with <random> if needed,
// but we provide the handful of distributions the protocols use directly
// (uniform integers, Bernoulli, subset sampling) to keep behaviour identical
// across standard-library implementations.
#pragma once

#include <cstdint>
#include <limits>

#include "core/contracts.hpp"

namespace ncdn {

/// splitmix64: used to expand a 64-bit seed into engine state.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** PRNG.  Not cryptographic; excellent statistical quality.
class rng {
 public:
  using result_type = std::uint64_t;

  explicit rng(std::uint64_t seed = 0x9042013u) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound).  bound must be positive.
  std::uint64_t below(std::uint64_t bound) noexcept {
    NCDN_EXPECTS(bound > 0);
    // Lemire's nearly-divisionless method with rejection for exactness.
    __extension__ typedef unsigned __int128 u128;
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = (*this)();
      const u128 m = static_cast<u128>(r) * static_cast<u128>(bound);
      if (static_cast<std::uint64_t>(m) >= threshold) {
        return static_cast<std::uint64_t>(m >> 64);
      }
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) noexcept {
    NCDN_EXPECTS(lo <= hi);
    return lo + below(hi - lo + 1);
  }

  /// Fair coin / Bernoulli(num/den).
  bool coin() noexcept { return ((*this)() >> 63) != 0; }
  bool bernoulli(double p) noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53 < p;
  }

  /// A uniformly random double in [0, 1).
  double uniform01() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Fisher-Yates shuffle.
  template <class Vec>
  void shuffle(Vec& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[static_cast<std::size_t>(below(i))]);
    }
  }

  /// Derive an independent stream (e.g. one per node) from this seed source.
  rng fork(std::uint64_t stream_id) noexcept {
    std::uint64_t mix = state_[0] ^ (0x2545f4914f6cdd1dULL * (stream_id + 1));
    return rng{splitmix64(mix)};
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

}  // namespace ncdn
