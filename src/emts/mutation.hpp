#pragma once
// The EMTS mutation operator (Sections III-C and III-D).
//
// Two ingredients:
//
//  1. Adaptive mutation count. In generation u of U, the number of alleles
//     (task allocations) modified per individual is
//         m = (1 - u/U) * f_m * V
//     (at least one), so exploration shrinks as the search converges.
//
//  2. Asymmetric magnitude. The adjustment C applied to an allocation is
//     drawn from a mixture of two folded normals shifted away from zero:
//     with probability `a` the allocation SHRINKS by floor(|X1|) + 1 and
//     with probability 1 - a it STRETCHES by floor(|X2|) + 1, where
//     X1 ~ N(0, sigma1), X2 ~ N(0, sigma2). Small adjustments are more
//     likely than large ones, and a = 0.2 makes shrinking less likely than
//     stretching. (Equation (1) of the paper labels the branches the other
//     way around; we follow the prose — see DESIGN.md.)
//
// Resulting allocations are clamped to [1, P]. The operator works on a
// genome in place (mutate_allocation), so the ES can mutate a child inside
// a reused buffer without allocating.

#include <cstddef>
#include <vector>

#include "sched/allocation.hpp"
#include "support/rng.hpp"

namespace ptgsched {

struct MutationParams {
  double shrink_probability = 0.2;  ///< a: P(allocation decreases).
  double sigma_shrink = 5.0;        ///< sigma1.
  double sigma_stretch = 5.0;       ///< sigma2.
};

/// Draw one allocation adjustment C (never 0; negative = shrink).
[[nodiscard]] int sample_allocation_delta(const MutationParams& params,
                                          Rng& rng);

/// Exact probability mass P[C = c] of the operator above (c != 0).
/// Used by the Figure 3 reproduction and the distribution tests.
[[nodiscard]] double allocation_delta_pmf(const MutationParams& params,
                                          int c);

/// Continuous density of the paper's Figure 3 (mixture of shifted folded
/// normals), for plotting the analytic curve next to the empirical one.
[[nodiscard]] double allocation_delta_density(const MutationParams& params,
                                              double c);

/// Number of alleles to mutate in generation u of U for a V-task graph:
/// max(1, floor((1 - u/U) * fm * V)). Requires u < U.
[[nodiscard]] std::size_t mutation_count(std::size_t u, std::size_t U,
                                         double fm, std::size_t V);

/// Apply the full EMTS operator to `genes` in place for generation u of U:
/// mutation_count(u, U, fm, V) distinct positions, each adjusted by
/// sample_allocation_delta and clamped to [1, P]. The positions are drawn
/// into `scratch` (Rng::sample_indices_into), so a caller that reuses one
/// buffer, as the Emts mutator does, mutates without allocating. Returns
/// the number of positions assigned.
std::size_t mutate_allocation(const MutationParams& params, double fm,
                              std::size_t u, std::size_t U, int P, Rng& rng,
                              Allocation& genes,
                              std::vector<std::size_t>& scratch);

}  // namespace ptgsched
