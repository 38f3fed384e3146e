#pragma once
// Shared plumbing of the perfbench binary: options, clocks, order
// statistics, the metric report, digests, and the correctness gate.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/problem_instance.hpp"
#include "emts/emts.hpp"
#include "sched/allocation.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Seed of the committed reference digests (perfbench/reference.json).
inline constexpr std::uint64_t kReferenceSeed = 20110926;

/// Command-line options of one run (see main.cpp).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Order statistics over a sample (copies; samples are small).
double percentile(std::vector<double> xs, double p);
double median(std::vector<double> xs);
double mean(const std::vector<double>& xs);

/// Named metrics with units. `set` overwrites; main.cpp prints the subset
/// BENCHMARK.json names for the run's mode and refuses a missing one,
/// unless the workload declared its prefix not applicable (printed as 0).
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] double value(const std::string& name) const;
  [[nodiscard]] const std::string& unit(const std::string& name) const;

  /// Metrics named `prefix...` measure a layer this workload does not have.
  void mark_not_applicable(const std::string& prefix) {
    not_applicable_.push_back(prefix);
  }
  [[nodiscard]] bool not_applicable(const std::string& name) const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::string> not_applicable_;
};

/// Correctness gate: counts operations attempted and failed, and keeps
/// the first few failure messages for stderr.
class Gate {
 public:
  void attempt(std::size_t n = 1) { attempted_ += n; }
  /// Record a failed operation (also counted as attempted by the caller).
  void fail(const std::string& why);
  /// A gate-level check (digest, bit-identity) that is not an operation:
  /// a mismatch marks the run incorrect and counts as one failure.
  void check(bool ok, const std::string& why);

  /// Fold in a gate filled on another thread.
  void merge(const Gate& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
  }

  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return failed_ == 0; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t printed_ = 0;
};

/// FNV-1a accumulator for workload and result digests.
class Digest {
 public:
  void add(std::uint64_t v) { add_bytes(&v, sizeof v); }
  void add(double v) { add_bytes(&v, sizeof v); }
  void add(const ptgsched::Allocation& a);
  void add(const ptgsched::Ptg& g);
  [[nodiscard]] std::string hex() const;

 private:
  void add_bytes(const void* data, std::size_t n);
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// A warmed problem instance plus its makespan lower bound.
struct Case {
  std::shared_ptr<const ptgsched::ProblemInstance> instance;
  double lower_bound = 0.0;
};

/// ProblemInstance::create + warm() on an owned copy of `g`.
std::shared_ptr<const ptgsched::ProblemInstance> build_instance(
    ptgsched::Ptg g, const std::string& platform, const std::string& model);

Case make_case(std::shared_ptr<const ptgsched::ProblemInstance> instance);

/// Validate `r` against its instance; false (with a gate failure) if the
/// schedule is invalid or disagrees with the reported makespan.
bool validate_result(const ptgsched::ProblemInstance& instance,
                     const ptgsched::EmtsResult& r, Gate& gate);

/// The committed reference digest for `key` (perfbench/reference.json),
/// or "" when absent.
std::string reference_digest(const std::string& key);

/// Peak resident set size of this process [MB].
double peak_rss_mb();

/// Per-run scratch directory inside the build tree (socket, journal);
/// created on construction, removed on destruction.
class ScratchDir {
 public:
  ScratchDir();
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace perfbench
