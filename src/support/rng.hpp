#pragma once
// Deterministic, seedable random number generation for ptgsched.
//
// Every stochastic component of the library (DAG generation, task-complexity
// sampling, the evolutionary optimizer) takes an explicit Rng so that whole
// experiments are reproducible bit-for-bit from a single 64-bit base seed.
// Seed derivation uses splitmix64, which lets independent sub-streams (e.g.
// "instance 17 of workload class 'irregular'") be derived without coupling.

#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

namespace ptgsched {

/// splitmix64 step: maps a 64-bit state to a well-mixed 64-bit output.
/// Used to derive independent seeds from (base, salt) pairs.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x) noexcept;

/// Derive a child seed from a base seed and one or more salts.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base,
                                        std::uint64_t salt) noexcept;
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base, std::uint64_t s1,
                                        std::uint64_t s2) noexcept;
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base, std::uint64_t s1,
                                        std::uint64_t s2,
                                        std::uint64_t s3) noexcept;

/// Seedable random generator with the distributions the library needs.
///
/// Wraps std::mt19937_64. Not thread-safe; use one Rng per thread or derive
/// independent child generators with split().
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) : engine_(seed) {}

  /// Underlying engine access (for std::shuffle interop).
  std::mt19937_64& engine() noexcept { return engine_; }

  /// Derive an independent child generator; advances this generator once.
  [[nodiscard]] Rng split();

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform size_t index in [0, n). Requires n > 0.
  [[nodiscard]] std::size_t index(std::size_t n);

  /// Uniform real in [lo, hi).
  [[nodiscard]] double uniform_real(double lo, double hi);

  /// Standard uniform in [0, 1).
  [[nodiscard]] double canonical();

  /// Normal with the given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev);

  /// Bernoulli trial: true with probability p (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p);

  /// Pick a uniformly random element of a non-empty span.
  template <typename T>
  [[nodiscard]] const T& pick(std::span<const T> items) {
    if (items.empty()) throw std::invalid_argument("Rng::pick: empty span");
    return items[index(items.size())];
  }
  template <typename T>
  [[nodiscard]] const T& pick(const std::vector<T>& items) {
    return pick(std::span<const T>(items));
  }

  /// Sample k distinct indices from [0, n) (uniform, order randomized).
  /// Requires k <= n.
  [[nodiscard]] std::vector<std::size_t> sample_indices(std::size_t n,
                                                        std::size_t k);

  /// sample_indices into a caller buffer: `out` holds the k indices on
  /// return, drawn with the same RNG calls. A buffer reused across calls
  /// keeps its capacity, so repeated samples do not allocate.
  void sample_indices_into(std::size_t n, std::size_t k,
                           std::vector<std::size_t>& out);

  /// Fisher-Yates shuffle of a vector in place.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[index(i)]);
    }
  }

 private:
  std::mt19937_64 engine_;
};

}  // namespace ptgsched
