// Tests for the deterministic RNG and seed derivation.

#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace ptgsched {
namespace {

TEST(Splitmix64, IsDeterministic) {
  EXPECT_EQ(splitmix64(0), splitmix64(0));
  EXPECT_EQ(splitmix64(42), splitmix64(42));
}

TEST(Splitmix64, MixesNearbyInputs) {
  // Consecutive inputs must map to wildly different outputs.
  const std::uint64_t a = splitmix64(1);
  const std::uint64_t b = splitmix64(2);
  EXPECT_NE(a, b);
  EXPECT_GT(__builtin_popcountll(a ^ b), 10);
}

TEST(DeriveSeed, DependsOnEverySalt) {
  EXPECT_NE(derive_seed(1, 2), derive_seed(1, 3));
  EXPECT_NE(derive_seed(1, 2), derive_seed(2, 2));
  EXPECT_NE(derive_seed(1, 2, 3), derive_seed(1, 3, 2));
  EXPECT_NE(derive_seed(1, 2, 3, 4), derive_seed(1, 2, 4, 3));
}

TEST(DeriveSeed, IsStable) {
  EXPECT_EQ(derive_seed(7, 8, 9), derive_seed(7, 8, 9));
}

TEST(Rng, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform_int(0, 1 << 30) == b.uniform_int(0, 1 << 30)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const auto x = rng.uniform_int(-3, 7);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 7);
  }
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(5);
  EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng rng(5);
  EXPECT_THROW((void)rng.uniform_int(2, 1), std::invalid_argument);
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, IndexBounds) {
  Rng rng(6);
  for (int i = 0; i < 500; ++i) EXPECT_LT(rng.index(17), 17u);
  EXPECT_THROW((void)rng.index(0), std::invalid_argument);
}

TEST(Rng, UniformRealRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform_real(2.5, 3.5);
    EXPECT_GE(x, 2.5);
    EXPECT_LT(x, 3.5);
  }
}

TEST(Rng, CanonicalInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.canonical();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NormalHasRoughlyCorrectMoments) {
  Rng rng(10);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(3.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(12);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.2)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.2, 0.02);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, SampleIndicesDistinctAndInRange) {
  Rng rng(14);
  for (int trial = 0; trial < 50; ++trial) {
    const auto sample = rng.sample_indices(20, 7);
    ASSERT_EQ(sample.size(), 7u);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 7u);
    for (const auto i : sample) EXPECT_LT(i, 20u);
  }
}

TEST(Rng, SampleIndicesFullSet) {
  Rng rng(15);
  auto sample = rng.sample_indices(5, 5);
  std::sort(sample.begin(), sample.end());
  EXPECT_EQ(sample, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Rng, SampleIndicesRejectsOversample) {
  Rng rng(16);
  EXPECT_THROW((void)rng.sample_indices(3, 4), std::invalid_argument);
  std::vector<std::size_t> out;
  EXPECT_THROW(rng.sample_indices_into(3, 4, out), std::invalid_argument);
}

TEST(Rng, SampleIndicesIntoMatchesSampleIndices) {
  // One reused buffer, varying sizes (it grows and shrinks): the same
  // indices and the same generator state after every call.
  Rng a(18);
  Rng b(18);
  std::vector<std::size_t> buffer;
  for (int trial = 0; trial < 200; ++trial) {
    const auto n = static_cast<std::size_t>(a.uniform_int(0, 120));
    ASSERT_EQ(static_cast<std::size_t>(b.uniform_int(0, 120)), n);
    const std::size_t k = n / (1 + static_cast<std::size_t>(trial % 4));
    const auto want = a.sample_indices(n, k);
    b.sample_indices_into(n, k, buffer);
    ASSERT_EQ(buffer, want);
    ASSERT_EQ(a.engine(), b.engine());
  }
}

TEST(Rng, SampleIndicesUnbiased) {
  // Each index of [0,5) should appear in a 2-of-5 sample ~40% of the time.
  Rng rng(17);
  std::vector<int> counts(5, 0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    for (const auto i : rng.sample_indices(5, 2)) ++counts[i];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.4, 0.02);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(18);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, PickThrowsOnEmpty) {
  Rng rng(19);
  const std::vector<int> empty;
  EXPECT_THROW((void)rng.pick(empty), std::invalid_argument);
}

TEST(Rng, PickReturnsElements) {
  Rng rng(20);
  const std::vector<int> v{10, 20, 30};
  for (int i = 0; i < 100; ++i) {
    const int x = rng.pick(v);
    EXPECT_TRUE(x == 10 || x == 20 || x == 30);
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(21);
  Rng child = a.split();
  // Child stream should not replay the parent stream.
  Rng b(21);
  (void)b.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (child.uniform_int(0, 1 << 30) == b.uniform_int(0, 1 << 30)) ++same;
  }
  EXPECT_LT(same, 3);
}

}  // namespace
}  // namespace ptgsched
