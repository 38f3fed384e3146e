#pragma once
// The mapping step of EMTS and the CPA family (Section III-A).
//
// "In the list scheduling algorithm used by EMTS, the ready nodes are
// sorted by decreasing bottom level and each ready node v is mapped to the
// first processor set that contains s(v) available processors."
//
// This is also the EA's fitness function: every evaluation is one complete
// pass, so the implementation keeps all scratch buffers preallocated and
// reads execution times out of the ProblemInstance's dense V x P table
// instead of calling the model's virtual time(): computing the makespan of
// one allocation is O(E + V P + V log V) with zero heap allocations after
// warm-up. The ready-queue and availability logic itself lives in
// MappingKernel (shared with the multi-cluster scheduler), and so do the
// processor-selection policies (EarliestAvailable / BestFit, ablation
// EXP-A3).
//
// Heterogeneous mode (DESIGN.md §14). When the instance's Cluster carries
// per-processor speeds or link costs, the same Allocation genome is
// reinterpreted: gene v names the PROCESSOR task v runs on (1-based, so
// validate_allocation and the dense-table indexing work unchanged) instead
// of a moldable width. The kernel is then built with P one-processor
// lanes, durations come from the per-(task, processor) table, and — when a
// cost matrix is present — the kernel charges link costs on successor
// edges through a comm context fed by the lane_of_ buffer kept current
// here.

#include <limits>
#include <memory>
#include <vector>

#include "core/problem_instance.hpp"
#include "sched/allocation.hpp"
#include "sched/mapping_kernel.hpp"
#include "sched/schedule.hpp"

namespace ptgsched {

struct ListSchedulerOptions {
  ProcessorSelection selection = ProcessorSelection::EarliestAvailable;
};

/// Reusable list scheduler bound to one shared ProblemInstance.
/// Not thread-safe: use one instance per thread (they are cheap, and any
/// number of them may share one ProblemInstance).
class ListScheduler {
 public:
  /// Primary constructor: shares the problem core (and thereby keeps the
  /// graph, model and cluster alive for the scheduler's whole lifetime).
  explicit ListScheduler(std::shared_ptr<const ProblemInstance> instance,
                         ListSchedulerOptions options = {});

  /// Legacy adapter: wraps caller-owned references in a borrowed
  /// ProblemInstance (the referents must outlive the scheduler). Prefer
  /// the shared-instance constructor, which has no lifetime hazard.
  ListScheduler(const Ptg& g, const Cluster& cluster,
                const ExecutionTimeModel& model,
                ListSchedulerOptions options = {});

  /// Makespan of the schedule produced for `alloc` (fitness fast path).
  [[nodiscard]] double makespan(const Allocation& alloc);

  /// Bounded fitness evaluation implementing the rejection strategy the
  /// paper proposes as future work (Section VI): while mapping, as soon as
  /// some scheduled task's start time plus its bottom level exceeds
  /// `upper_bound` the final makespan provably will too, so the evaluation
  /// aborts and returns +infinity. Exact makespan otherwise.
  [[nodiscard]] double makespan_bounded(const Allocation& alloc,
                                        double upper_bound);

  /// Number of makespan_bounded() calls rejected early since construction
  /// or the last reset_stats().
  [[nodiscard]] std::size_t rejected_count() const noexcept {
    return core_.rejected_count();
  }
  /// Zero the rejection counter, so telemetry deltas across unrelated runs
  /// sharing one scheduler stay exact.
  void reset_stats() noexcept { core_.reset_stats(); }

  /// Full schedule (task placements) for `alloc`.
  [[nodiscard]] Schedule build_schedule(const Allocation& alloc);

  [[nodiscard]] const ProblemInstance& instance() const noexcept {
    return *instance_;
  }
  [[nodiscard]] const Ptg& graph() const noexcept {
    return instance_->graph();
  }
  [[nodiscard]] const Cluster& cluster() const noexcept {
    return instance_->cluster();
  }
  [[nodiscard]] const ExecutionTimeModel& model() const noexcept {
    return instance_->model();
  }

  /// Whether this scheduler interprets genes as processors (heterogeneous
  /// cluster) rather than moldable widths.
  [[nodiscard]] bool heterogeneous() const noexcept { return hetero_; }

 private:
  double run(const Allocation& alloc, Schedule* out,
             double upper_bound = std::numeric_limits<double>::infinity());

  /// Fill times_ from the time table for `alloc` (validates first).
  void load_times(const Allocation& alloc);

  /// Invoke `fn` with the placement functor for the current mode: the
  /// moldable one (single lane, gene = width) or the heterogeneous one
  /// (gene = processor index, one-processor lanes). A generic callback
  /// instead of a branch per pop: each kernel entry point is instantiated
  /// once per functor type, so both modes keep a branch-free hot loop.
  template <typename Fn>
  double with_place(const Allocation& alloc, Fn&& fn) {
    if (hetero_) {
      return fn([this, &alloc](TaskId v, double data_ready) {
        MappingKernel::Placement p;
        p.lane = static_cast<std::size_t>(alloc[v] - 1);
        p.size = 1;
        p.start = core_.earliest_start(p.lane, 1, data_ready);
        p.finish = p.start + times_[v];
        return p;
      });
    }
    return fn([this, &alloc](TaskId v, double data_ready) {
      MappingKernel::Placement p;
      p.lane = 0;
      p.size = static_cast<std::size_t>(alloc[v]);
      p.start = core_.earliest_start(0, p.size, data_ready);
      p.finish = p.start + times_[v];
      return p;
    });
  }

  std::shared_ptr<const ProblemInstance> instance_;
  ListSchedulerOptions options_;
  bool hetero_ = false;  ///< instance_->heterogeneous(), cached.
  MappingKernel core_;
  /// Dense duration table: time_table() (per width) in moldable mode,
  /// proc_time_table() (per processor) in heterogeneous mode; both are
  /// indexed table_[v * P + alloc[v] - 1].
  const double* table_ = nullptr;
  std::vector<double> times_;      ///< Per-task times under the allocation.
  /// Comm mode only (heterogeneous cluster with a cost matrix): the lane
  /// (processor) of every task under the allocation being evaluated. The
  /// kernel's comm context reads this buffer when charging edge costs, so
  /// load_times stages it together with times_.
  std::vector<int> lane_of_;
};

/// One-shot convenience wrapper.
[[nodiscard]] Schedule map_allocation(const Ptg& g, const Allocation& alloc,
                                      const ExecutionTimeModel& model,
                                      const Cluster& cluster,
                                      ListSchedulerOptions options = {});

}  // namespace ptgsched
