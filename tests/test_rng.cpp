// RNG determinism and distribution sanity (everything downstream depends
// on reproducible, well-behaved randomness).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/rng.hpp"

namespace ncdn {
namespace {

TEST(rng, deterministic_given_seed) {
  rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(rng, different_seeds_diverge) {
  rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a() == b() ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(rng, below_respects_bound) {
  rng r(3);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.below(bound), bound);
  }
}

TEST(rng, below_hits_every_residue) {
  rng r(4);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(rng, between_is_inclusive) {
  rng r(5);
  bool lo = false, hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = r.between(10, 13);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 13u);
    lo = lo || v == 10;
    hi = hi || v == 13;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(rng, bernoulli_tracks_p) {
  rng r(6);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += r.bernoulli(0.25) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.25, 0.02);
}

TEST(rng, uniform01_range_and_mean) {
  rng r(7);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = r.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(rng, shuffle_is_permutation) {
  rng r(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> w = v;
  r.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(rng, fork_streams_are_independent_and_reproducible) {
  rng master1(11), master2(11);
  rng a1 = master1.fork(1);
  rng a2 = master2.fork(1);
  rng b1 = master1.fork(2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a1(), a2());
  int equal = 0;
  rng a3 = master2.fork(1);
  for (int i = 0; i < 100; ++i) equal += a3() == b1() ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(splitmix, reference_values_stable) {
  // Pin the seeding function so serialized experiment seeds stay valid.
  std::uint64_t s = 0;
  const std::uint64_t v1 = splitmix64(s);
  const std::uint64_t v2 = splitmix64(s);
  EXPECT_NE(v1, v2);
  std::uint64_t s2 = 0;
  EXPECT_EQ(splitmix64(s2), v1);
}

}  // namespace
}  // namespace ncdn
