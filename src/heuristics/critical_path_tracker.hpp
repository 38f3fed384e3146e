#pragma once
// CriticalPathTracker — bottom levels and one critical path under per-task
// times that change one task at a time: the state the CPA-family loops
// (CPA/HCPA/MCPA/MCPA2, BiCPA's virtual-size sweep, CPR) query after every
// granted processor.
//
// Bottom levels are computed once over the instance's CSR successors, in
// reverse topological order, as bl(v) = t(v) + max over successors bl(w).
// After set_time(v, t) only v and its ancestors can change: they are
// recomputed with that same expression, in decreasing topological
// position, and the walk stops at every task whose bottom level comes out
// unchanged. When a task is recomputed all of its successors already hold
// their final values (their positions are larger), and `max` is exact, so
// every bottom level is bit-identical to a from-scratch sweep — and so is
// every critical path the shared walk (critical_path_into) derives from
// them.

#include <cstdint>
#include <vector>

#include "core/problem_instance.hpp"

namespace ptgsched {

class CriticalPathTracker {
 public:
  /// `times[v]` is task v's current execution time. The instance must
  /// outlive the tracker.
  CriticalPathTracker(const ProblemInstance& instance,
                      std::vector<double> times);

  [[nodiscard]] double time(TaskId v) const noexcept { return times_[v]; }
  /// Critical-path length T_CP: the largest bottom level.
  [[nodiscard]] double length() const;
  /// One critical path under the current times, with critical_path's tie
  /// rules. The reference stays valid until the next call.
  [[nodiscard]] const std::vector<TaskId>& path();

  /// Change task v's time and bring every bottom level up to date.
  void set_time(TaskId v, double t);

 private:
  const ProblemInstance& pi_;
  std::vector<double> times_;
  std::vector<double> bl_;
  std::vector<std::uint32_t> topo_pos_;  ///< Task -> topological position.
  std::vector<std::uint32_t> dirty_;     ///< Max-heap of positions.
  std::vector<char> queued_;             ///< By task: already in dirty_.
  std::vector<TaskId> path_;
};

}  // namespace ptgsched
