#include "heuristics/critical_path_tracker.hpp"

#include <algorithm>

#include "ptg/algorithms.hpp"

namespace ptgsched {

CriticalPathTracker::CriticalPathTracker(const ProblemInstance& instance,
                                         std::vector<double> times)
    : pi_(instance), times_(std::move(times)) {
  const std::size_t n = pi_.num_tasks();
  const std::span<const TaskId> topo = pi_.topo_order();
  const std::span<const std::uint32_t> off = pi_.succ_offsets();
  const std::span<const TaskId> adj = pi_.succ_adjacency();
  bl_.assign(n, 0.0);
  topo_pos_.resize(n);
  for (std::size_t i = n; i-- > 0;) {
    const TaskId v = topo[i];
    topo_pos_[v] = static_cast<std::uint32_t>(i);
    double best = 0.0;
    for (std::uint32_t e = off[v]; e < off[v + 1]; ++e) {
      best = std::max(best, bl_[adj[e]]);
    }
    bl_[v] = times_[v] + best;
  }
  queued_.assign(n, 0);
}

double CriticalPathTracker::length() const {
  return bl_.empty() ? 0.0 : *std::max_element(bl_.begin(), bl_.end());
}

const std::vector<TaskId>& CriticalPathTracker::path() {
  critical_path_into(pi_.graph(), pi_.source_tasks(), bl_, times_, path_);
  return path_;
}

void CriticalPathTracker::set_time(TaskId v, double t) {
  times_[v] = t;
  const std::span<const TaskId> topo = pi_.topo_order();
  const std::span<const std::uint32_t> off = pi_.succ_offsets();
  const std::span<const TaskId> adj = pi_.succ_adjacency();
  const std::span<const std::uint32_t> pred_off = pi_.pred_offsets();
  const std::span<const TaskId> pred_adj = pi_.pred_adjacency();

  // Largest topological position first: a task is recomputed only after
  // every successor that can still change has settled.
  dirty_.assign(1, topo_pos_[v]);
  queued_[v] = 1;
  while (!dirty_.empty()) {
    std::pop_heap(dirty_.begin(), dirty_.end());
    const TaskId u = topo[dirty_.back()];
    dirty_.pop_back();
    queued_[u] = 0;
    double best = 0.0;
    for (std::uint32_t e = off[u]; e < off[u + 1]; ++e) {
      best = std::max(best, bl_[adj[e]]);
    }
    const double level = times_[u] + best;
    if (level == bl_[u]) continue;
    bl_[u] = level;
    for (std::uint32_t e = pred_off[u]; e < pred_off[u + 1]; ++e) {
      const TaskId x = pred_adj[e];
      if (queued_[x] != 0) continue;
      queued_[x] = 1;
      dirty_.push_back(topo_pos_[x]);
      std::push_heap(dirty_.begin(), dirty_.end());
    }
  }
}

}  // namespace ptgsched
