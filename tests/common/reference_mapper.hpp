#pragma once
// ReferenceMapper — the legacy list-mapping pass, preserved verbatim as
// the oracle for the data-oriented MappingKernel.
//
// This is the single-cluster algorithm exactly as MappingCore shipped it:
// bottom levels re-derived per pass over Ptg's vector-of-vectors
// adjacency, a std::push_heap/pop_heap binary ready heap of task ids with
// indirect bottom-level comparisons, and per-lane availability as an
// unsorted array updated with O(P) nth_element selection. Nothing here is
// tuned; its only job is the golden tests: MappingKernel must produce
// bit-identical makespans, schedules and rejection counts on every input.
// It lives with the tests and is not part of the installed library.
//
// Deliberately NOT a drop-in ListScheduler replacement: it only does
// single-lane value/placement passes (the multi-cluster path has its own
// agreement tests against the single-cluster scheduler).
//
// On heterogeneous instances the mapper is the oracle for the kernel's
// heterogeneous mode too: genes name processors, durations come from the
// per-(task, processor) table, the per-processor availability array is
// read directly (no selection needed — the gene IS the processor), and
// successor updates charge the cluster's link costs. Written against the
// plain per-processor arrays precisely so it shares none of the kernel's
// lane/window machinery.

#include <limits>
#include <memory>
#include <vector>

#include "core/problem_instance.hpp"
#include "sched/allocation.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/schedule.hpp"

namespace ptgsched {

class ReferenceMapper {
 public:
  explicit ReferenceMapper(std::shared_ptr<const ProblemInstance> instance,
                           ListSchedulerOptions options = {});

  [[nodiscard]] double makespan(const Allocation& alloc) {
    return run(alloc, nullptr,
               std::numeric_limits<double>::infinity());
  }
  [[nodiscard]] double makespan_bounded(const Allocation& alloc,
                                        double upper_bound) {
    return run(alloc, nullptr, upper_bound);
  }
  [[nodiscard]] Schedule build_schedule(const Allocation& alloc);

  [[nodiscard]] std::size_t rejected_count() const noexcept {
    return rejected_;
  }
  void reset_stats() noexcept { rejected_ = 0; }

 private:
  double run(const Allocation& alloc, Schedule* out, double upper_bound);
  [[nodiscard]] double earliest_start(std::size_t size,
                                      double data_ready) const;
  void occupy(TaskId v, std::size_t size, double start, double finish,
              ProcessorSelection selection, Schedule* out);

  std::shared_ptr<const ProblemInstance> instance_;
  ListSchedulerOptions options_;
  bool hetero_ = false;            ///< Genes are processors, not widths.
  const double* comm_ = nullptr;   ///< Link-cost matrix, when present.
  const double* table_ = nullptr;

  std::vector<double> avail_;  ///< Per processor, unsorted (legacy layout).
  std::vector<double> times_;
  std::vector<double> bl_;
  std::vector<double> data_ready_;
  std::vector<std::size_t> waiting_preds_;
  std::vector<TaskId> ready_heap_;
  std::vector<int> proc_order_;
  mutable std::vector<double> query_times_;
  std::size_t rejected_ = 0;
};

}  // namespace ptgsched
