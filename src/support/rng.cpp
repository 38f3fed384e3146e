#include "support/rng.hpp"

#include <algorithm>
#include <numeric>

namespace ptgsched {

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t salt) noexcept {
  return splitmix64(splitmix64(base) ^ salt);
}

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t s1,
                          std::uint64_t s2) noexcept {
  return derive_seed(derive_seed(base, s1), s2);
}

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t s1,
                          std::uint64_t s2, std::uint64_t s3) noexcept {
  return derive_seed(derive_seed(base, s1, s2), s3);
}

Rng Rng::split() { return Rng(splitmix64(engine_())); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

std::size_t Rng::index(std::size_t n) {
  if (n == 0) throw std::invalid_argument("Rng::index: n == 0");
  return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
}

double Rng::uniform_real(double lo, double hi) {
  if (!(lo <= hi)) throw std::invalid_argument("Rng::uniform_real: lo > hi");
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

double Rng::canonical() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::normal(double mean, double stddev) {
  // A fresh distribution per call keeps draws independent of call history
  // (std::normal_distribution caches a second variate internally).
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

bool Rng::bernoulli(double p) {
  const double q = std::clamp(p, 0.0, 1.0);
  return canonical() < q;
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  std::vector<std::size_t> out;
  sample_indices_into(n, k, out);
  return out;
}

void Rng::sample_indices_into(std::size_t n, std::size_t k,
                              std::vector<std::size_t>& out) {
  if (k > n) throw std::invalid_argument("Rng::sample_indices: k > n");
  // Partial Fisher-Yates: O(n) setup, O(k) swaps.
  out.resize(n);
  std::iota(out.begin(), out.end(), std::size_t{0});
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + index(n - i);
    std::swap(out[i], out[j]);
  }
  out.resize(k);
}

}  // namespace ptgsched
