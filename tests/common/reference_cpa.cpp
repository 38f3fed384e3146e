#include "reference_cpa.hpp"

#include <algorithm>

#include "ptg/algorithms.hpp"

namespace ptgsched {

Allocation reference_cpa(const ProblemInstance& pi, bool level_bound) {
  const Ptg& g = pi.graph();
  const int P = pi.num_processors();
  const std::size_t n = pi.num_tasks();
  const std::span<const TaskId> topo = pi.topo_order();
  const std::span<const int> levels = pi.precedence_levels();
  const double* table = pi.time_table().data();
  const auto stride = static_cast<std::size_t>(P);

  Allocation alloc(n, 1);
  std::vector<double> times(n);
  for (TaskId v = 0; v < n; ++v) times[v] = table[v * stride];

  std::vector<long long> level_alloc(static_cast<std::size_t>(pi.num_levels()),
                                     0);
  for (TaskId v = 0; v < n; ++v) {
    level_alloc[static_cast<std::size_t>(levels[v])] += 1;
  }

  std::vector<double> bl;
  const auto time_of = [&](TaskId v) { return times[v]; };

  const std::size_t max_iters = n * static_cast<std::size_t>(P) + 1;
  for (std::size_t iter = 0; iter < max_iters; ++iter) {
    bottom_levels_into(g, topo, time_of, bl);
    const double t_cp = *std::max_element(bl.begin(), bl.end());
    double work = 0.0;
    for (TaskId v = 0; v < n; ++v) {
      work += static_cast<double>(alloc[v]) * times[v];
    }
    const double t_a = work / static_cast<double>(P);
    if (t_cp <= t_a) break;

    const auto path = critical_path(g, time_of);
    TaskId best = kInvalidTask;
    double best_gain = 0.0;
    for (const TaskId v : path) {
      const int s = alloc[v];
      if (s >= P) continue;
      if (level_bound &&
          level_alloc[static_cast<std::size_t>(levels[v])] >= P) {
        continue;
      }
      const double t_next = table[v * stride + static_cast<std::size_t>(s)];
      const double gain = times[v] / static_cast<double>(s) -
                          t_next / static_cast<double>(s + 1);
      if (gain > best_gain ||
          (gain == best_gain && best != kInvalidTask && v < best &&
           gain > 0.0)) {
        best = v;
        best_gain = gain;
      }
    }
    if (best == kInvalidTask || !(best_gain > 0.0)) break;

    alloc[best] += 1;
    times[best] = table[best * stride + static_cast<std::size_t>(alloc[best]) -
                        1];
    level_alloc[static_cast<std::size_t>(levels[best])] += 1;
  }
  return alloc;
}

Allocation reference_mcpa2(const ProblemInstance& pi) {
  Allocation alloc = reference_cpa(pi, /*level_bound=*/true);
  const int P = pi.num_processors();
  const std::size_t n = pi.num_tasks();
  const double* table = pi.time_table().data();
  const auto stride = static_cast<std::size_t>(P);

  std::vector<double> times(n);
  for (TaskId v = 0; v < n; ++v) {
    times[v] = table[v * stride + static_cast<std::size_t>(alloc[v]) - 1];
  }
  for (const auto& level : pi.tasks_by_level()) {
    long long used = 0;
    for (const TaskId v : level) used += alloc[v];
    while (used < P) {
      TaskId longest = kInvalidTask;
      for (const TaskId v : level) {
        if (alloc[v] >= P) continue;
        if (longest == kInvalidTask || times[v] > times[longest]) longest = v;
      }
      if (longest == kInvalidTask) break;
      const double t_next =
          table[longest * stride + static_cast<std::size_t>(alloc[longest])];
      if (!(t_next < times[longest])) break;
      alloc[longest] += 1;
      times[longest] = t_next;
      ++used;
    }
  }
  return alloc;
}

namespace {

Allocation reference_cpa_for_virtual_size(const ProblemInstance& pi, int b) {
  const Ptg& g = pi.graph();
  const std::size_t n = pi.num_tasks();
  const std::span<const TaskId> topo = pi.topo_order();
  const double* table = pi.time_table().data();
  const auto stride = static_cast<std::size_t>(pi.num_processors());
  Allocation alloc(n, 1);
  std::vector<double> times(n);
  for (TaskId v = 0; v < n; ++v) times[v] = table[v * stride];
  std::vector<double> bl;

  const std::size_t max_iters = n * static_cast<std::size_t>(b) + 1;
  for (std::size_t iter = 0; iter < max_iters; ++iter) {
    bottom_levels_into(g, topo, [&](TaskId v) { return times[v]; }, bl);
    const double t_cp = *std::max_element(bl.begin(), bl.end());
    double work = 0.0;
    for (TaskId v = 0; v < n; ++v) {
      work += static_cast<double>(alloc[v]) * times[v];
    }
    if (t_cp <= work / static_cast<double>(b)) break;

    const auto path = critical_path(g, [&](TaskId v) { return times[v]; });
    TaskId best = kInvalidTask;
    double best_gain = 0.0;
    for (const TaskId v : path) {
      const int s = alloc[v];
      if (s >= b) continue;
      const double t_next = table[v * stride + static_cast<std::size_t>(s)];
      const double gain = times[v] / static_cast<double>(s) -
                          t_next / static_cast<double>(s + 1);
      if (gain > best_gain) {
        best = v;
        best_gain = gain;
      }
    }
    if (best == kInvalidTask || !(best_gain > 0.0)) break;
    alloc[best] += 1;
    times[best] = table[best * stride + static_cast<std::size_t>(alloc[best]) -
                        1];
  }
  return alloc;
}

}  // namespace

Allocation reference_bicpa(const ProblemInstance& pi, int stride,
                           ListSchedulerOptions mapping) {
  const int P = pi.num_processors();
  ListScheduler mapper(pi.shared_from_this(), mapping);
  Allocation best_alloc;
  double best_makespan = 0.0;
  for (int b = 1; b <= P; b += stride) {
    Allocation alloc = reference_cpa_for_virtual_size(pi, b);
    const double m = mapper.makespan(alloc);
    if (best_alloc.empty() || m < best_makespan) {
      best_makespan = m;
      best_alloc = std::move(alloc);
    }
  }
  if ((P - 1) % stride != 0) {
    Allocation alloc = reference_cpa_for_virtual_size(pi, P);
    if (mapper.makespan(alloc) < best_makespan) best_alloc = std::move(alloc);
  }
  return best_alloc;
}

}  // namespace ptgsched
