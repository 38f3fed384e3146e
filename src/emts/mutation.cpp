#include "emts/mutation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ptgsched {

namespace {

void check(const MutationParams& p) {
  if (!(p.shrink_probability >= 0.0 && p.shrink_probability <= 1.0)) {
    throw std::invalid_argument("MutationParams: shrink_probability not in [0,1]");
  }
  if (!(p.sigma_shrink > 0.0) || !(p.sigma_stretch > 0.0)) {
    throw std::invalid_argument("MutationParams: sigmas must be positive");
  }
}

double std_normal_cdf(double x) {
  return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

}  // namespace

int sample_allocation_delta(const MutationParams& params, Rng& rng) {
  check(params);
  if (rng.bernoulli(params.shrink_probability)) {
    const double x = rng.normal(0.0, params.sigma_shrink);
    return -(static_cast<int>(std::floor(std::fabs(x))) + 1);
  }
  const double x = rng.normal(0.0, params.sigma_stretch);
  return static_cast<int>(std::floor(std::fabs(x))) + 1;
}

double allocation_delta_pmf(const MutationParams& params, int c) {
  check(params);
  if (c == 0) return 0.0;
  const bool shrink = c < 0;
  const double branch_p =
      shrink ? params.shrink_probability : 1.0 - params.shrink_probability;
  const double sigma = shrink ? params.sigma_shrink : params.sigma_stretch;
  const int k = std::abs(c);  // magnitude = floor(|X|) + 1 == k
  // P(floor(|X|) == k - 1) = P(k - 1 <= |X| < k) for X ~ N(0, sigma):
  const double lo = static_cast<double>(k - 1) / sigma;
  const double hi = static_cast<double>(k) / sigma;
  const double mass = 2.0 * (std_normal_cdf(hi) - std_normal_cdf(lo));
  return branch_p * mass;
}

double allocation_delta_density(const MutationParams& params, double c) {
  check(params);
  const bool shrink = c < 0.0;
  const double branch_p =
      shrink ? params.shrink_probability : 1.0 - params.shrink_probability;
  const double sigma = shrink ? params.sigma_shrink : params.sigma_stretch;
  const double mag = std::fabs(c) - 1.0;  // distance beyond the +-1 shift
  if (mag < 0.0) return 0.0;              // no mass in (-1, 1)
  const double half_normal =
      std::sqrt(2.0 / M_PI) / sigma * std::exp(-mag * mag / (2.0 * sigma * sigma));
  return branch_p * half_normal;
}

std::size_t mutation_count(std::size_t u, std::size_t U, double fm,
                           std::size_t V) {
  if (U == 0 || u >= U) {
    throw std::invalid_argument("mutation_count: need u < U");
  }
  if (!(fm > 0.0 && fm <= 1.0)) {
    throw std::invalid_argument("mutation_count: fm must be in (0, 1]");
  }
  const double frac = 1.0 - static_cast<double>(u) / static_cast<double>(U);
  const auto m = static_cast<std::size_t>(frac * fm * static_cast<double>(V));
  return std::max<std::size_t>(1, std::min(m, V));
}

std::size_t mutate_allocation(const MutationParams& params, double fm,
                              std::size_t u, std::size_t U, int P, Rng& rng,
                              Allocation& genes,
                              std::vector<std::size_t>& scratch) {
  const std::size_t m = mutation_count(u, U, fm, genes.size());
  rng.sample_indices_into(genes.size(), m, scratch);
  for (const std::size_t pos : scratch) {
    const int delta = sample_allocation_delta(params, rng);
    genes[pos] = static_cast<int>(
        std::clamp<long long>(static_cast<long long>(genes[pos]) + delta, 1,
                              P));
  }
  return m;
}

}  // namespace ptgsched
