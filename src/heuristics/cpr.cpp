#include "heuristics/cpr.hpp"

#include "heuristics/critical_path_tracker.hpp"

namespace ptgsched {

Allocation CprAllocation::allocate(const ProblemInstance& instance) const {
  const int P = instance.num_processors();
  const std::size_t n = instance.num_tasks();
  const double* table = instance.time_table().data();
  const auto stride = static_cast<std::size_t>(P);

  // The mapper shares the instance (and its time table) with this loop.
  ListScheduler mapper(instance.shared_from_this(), mapping_);
  Allocation alloc(n, 1);
  std::vector<double> times(n);
  for (TaskId v = 0; v < n; ++v) times[v] = table[v * stride];
  CriticalPathTracker cp(instance, std::move(times));

  double best_makespan = mapper.makespan(alloc);

  // Each accepted change adds one processor, so at most V * (P - 1)
  // iterations; in practice the loop exits as soon as no critical task's
  // growth pays off in the mapped schedule.
  const std::size_t max_iters = n * static_cast<std::size_t>(P) + 1;
  for (std::size_t iter = 0; iter < max_iters; ++iter) {
    TaskId best_task = kInvalidTask;
    double best_candidate = best_makespan;
    for (const TaskId v : cp.path()) {
      if (alloc[v] >= P) continue;
      alloc[v] += 1;
      const double m = mapper.makespan(alloc);
      alloc[v] -= 1;
      if (m < best_candidate) {
        best_candidate = m;
        best_task = v;
      }
    }
    if (best_task == kInvalidTask) break;

    alloc[best_task] += 1;
    cp.set_time(best_task, table[best_task * stride +
                                 static_cast<std::size_t>(alloc[best_task]) -
                                 1]);
    best_makespan = best_candidate;
  }
  return alloc;
}

}  // namespace ptgsched
