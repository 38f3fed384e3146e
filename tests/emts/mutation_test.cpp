// Tests for the EMTS mutation operator (Sections III-C/III-D, Figure 3).

#include "emts/mutation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "emts/emts.hpp"

namespace ptgsched {
namespace {

TEST(MutationCount, PaperFormula) {
  // m = (1 - u/U) * fm * V, at least 1. EMTS5: U=5, fm=0.33, V=100.
  EXPECT_EQ(mutation_count(0, 5, 0.33, 100), 33u);
  EXPECT_EQ(mutation_count(1, 5, 0.33, 100), 26u);  // 0.8*33 = 26.4
  EXPECT_EQ(mutation_count(2, 5, 0.33, 100), 19u);  // 0.6*33 = 19.8
  EXPECT_EQ(mutation_count(3, 5, 0.33, 100), 13u);  // 0.4*33 = 13.2
  EXPECT_EQ(mutation_count(4, 5, 0.33, 100), 6u);   // 0.2*33 = 6.6
}

TEST(MutationCount, NeverBelowOneOrAboveV) {
  EXPECT_EQ(mutation_count(9, 10, 0.33, 5), 1u);   // would be 0.165
  EXPECT_EQ(mutation_count(0, 2, 1.0, 3), 3u);
  EXPECT_EQ(mutation_count(0, 5, 0.01, 100), 1u);
}

TEST(MutationCount, DecreasesOverGenerations) {
  std::size_t prev = 1000;
  for (std::size_t u = 0; u < 10; ++u) {
    const std::size_t m = mutation_count(u, 10, 0.5, 200);
    EXPECT_LE(m, prev);
    prev = m;
  }
}

TEST(MutationCount, RejectsBadArguments) {
  EXPECT_THROW((void)mutation_count(5, 5, 0.33, 10), std::invalid_argument);
  EXPECT_THROW((void)mutation_count(0, 0, 0.33, 10), std::invalid_argument);
  EXPECT_THROW((void)mutation_count(0, 5, 0.0, 10), std::invalid_argument);
  EXPECT_THROW((void)mutation_count(0, 5, 1.5, 10), std::invalid_argument);
}

TEST(AllocationDelta, NeverZero) {
  MutationParams params;
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_NE(sample_allocation_delta(params, rng), 0);
  }
}

TEST(AllocationDelta, ShrinkProbabilityMatchesA) {
  // a = 0.2: "the number of processors allocated to a task decreases with
  // a probability of 20%."
  MutationParams params;
  params.shrink_probability = 0.2;
  Rng rng(2);
  int shrinks = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (sample_allocation_delta(params, rng) < 0) ++shrinks;
  }
  EXPECT_NEAR(static_cast<double>(shrinks) / n, 0.2, 0.01);
}

TEST(AllocationDelta, StretchingMoreLikelyThanShrinking) {
  MutationParams params;  // a = 0.2 < 0.5
  Rng rng(3);
  int stretch = 0;
  int shrink = 0;
  for (int i = 0; i < 20000; ++i) {
    (sample_allocation_delta(params, rng) > 0 ? stretch : shrink)++;
  }
  EXPECT_GT(stretch, 2 * shrink);
}

TEST(AllocationDelta, SmallChangesMoreLikelyThanLarge) {
  MutationParams params;  // sigma = 5
  Rng rng(4);
  std::map<int, int> counts;
  for (int i = 0; i < 100000; ++i) {
    ++counts[std::abs(sample_allocation_delta(params, rng))];
  }
  // Magnitude 1 must be the most common; far tail must be rare.
  for (const auto& [mag, count] : counts) {
    if (mag > 1) EXPECT_LE(count, counts[1]) << "magnitude " << mag;
  }
  int beyond_3sigma = 0;
  for (const auto& [mag, count] : counts) {
    if (mag > 16) beyond_3sigma += count;
  }
  EXPECT_LT(beyond_3sigma, 1000);  // ~0.3% of half-normal beyond 3 sigma
}

TEST(AllocationDelta, EmpiricalMatchesPmf) {
  MutationParams params;
  Rng rng(5);
  const int n = 200000;
  std::map<int, int> counts;
  for (int i = 0; i < n; ++i) ++counts[sample_allocation_delta(params, rng)];
  for (const int c : {-5, -2, -1, 1, 2, 5, 9}) {
    const double expected = allocation_delta_pmf(params, c);
    const double observed = static_cast<double>(counts[c]) / n;
    EXPECT_NEAR(observed, expected, 0.005) << "c=" << c;
  }
}

TEST(AllocationDeltaPmf, SumsToOne) {
  MutationParams params;
  double total = 0.0;
  for (int c = -200; c <= 200; ++c) total += allocation_delta_pmf(params, c);
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(allocation_delta_pmf(params, 0), 0.0);
}

TEST(AllocationDeltaPmf, BranchWeights) {
  MutationParams params;
  params.shrink_probability = 0.2;
  double neg = 0.0;
  double pos = 0.0;
  for (int c = 1; c <= 200; ++c) {
    pos += allocation_delta_pmf(params, c);
    neg += allocation_delta_pmf(params, -c);
  }
  EXPECT_NEAR(neg, 0.2, 1e-9);
  EXPECT_NEAR(pos, 0.8, 1e-9);
}

TEST(AllocationDeltaDensity, MirrorsFigure3Shape) {
  MutationParams params;  // sigma1 = sigma2 = 5, a = 0.2
  // No mass between -1 and 1.
  EXPECT_DOUBLE_EQ(allocation_delta_density(params, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(allocation_delta_density(params, 0.5), 0.0);
  // Peak just beyond +1 is higher than just beyond -1 (stretch-biased).
  EXPECT_GT(allocation_delta_density(params, 1.01),
            allocation_delta_density(params, -1.01));
  // Density decays with magnitude.
  EXPECT_GT(allocation_delta_density(params, 2.0),
            allocation_delta_density(params, 10.0));
  EXPECT_GT(allocation_delta_density(params, -2.0),
            allocation_delta_density(params, -10.0));
}

TEST(AllocationDeltaDensity, IntegratesToOne) {
  MutationParams params;
  double integral = 0.0;
  const double dx = 0.01;
  for (double x = -60.0; x <= 60.0; x += dx) {
    integral += allocation_delta_density(params, x) * dx;
  }
  EXPECT_NEAR(integral, 1.0, 1e-3);
}

TEST(AllocationDelta, RejectsBadParams) {
  Rng rng(6);
  MutationParams bad;
  bad.shrink_probability = 1.5;
  EXPECT_THROW((void)sample_allocation_delta(bad, rng),
               std::invalid_argument);
  bad = MutationParams{};
  bad.sigma_shrink = 0.0;
  EXPECT_THROW((void)sample_allocation_delta(bad, rng),
               std::invalid_argument);
  EXPECT_THROW((void)allocation_delta_pmf(bad, 1), std::invalid_argument);
}

TEST(AllocationDelta, AsymmetricSigmas) {
  MutationParams params;
  params.shrink_probability = 0.5;
  params.sigma_shrink = 1.0;
  params.sigma_stretch = 10.0;
  Rng rng(7);
  double shrink_mag = 0.0;
  double stretch_mag = 0.0;
  int shrinks = 0;
  int stretches = 0;
  for (int i = 0; i < 50000; ++i) {
    const int c = sample_allocation_delta(params, rng);
    if (c < 0) {
      shrink_mag += -c;
      ++shrinks;
    } else {
      stretch_mag += c;
      ++stretches;
    }
  }
  EXPECT_LT(shrink_mag / shrinks, stretch_mag / stretches);
}

TEST(Mutator, TrackedMutatorDrawsIdenticalChildren) {
  MutationParams params;
  const double fm = 0.33;
  const std::size_t generations = 10;
  const int P = 16;
  const MutateFn plain = Emts::make_mutator(params, fm, generations, P);
  const TrackedMutateFn tracked =
      Emts::make_tracked_mutator(params, fm, generations, P);
  Rng rng_a(5150);
  Rng rng_b(5150);
  Allocation parent(60, 4);
  for (std::size_t u = 0; u < generations; ++u) {
    Allocation a = parent;
    plain(a, u, rng_a);
    Allocation b = parent;
    tracked(b, u, rng_b);
    // Same RNG stream, same child — swapping the operators can never
    // change the evolution trajectory.
    ASSERT_EQ(a, b);
    ASSERT_EQ(rng_a.engine(), rng_b.engine());
    parent = b;
  }
}

}  // namespace
}  // namespace ptgsched
