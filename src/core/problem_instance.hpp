#pragma once
// The shared problem core: one immutable bundle of (graph, model, cluster)
// plus every piece of derived data the scheduling stack keeps re-deriving.
//
// The paper's fitness function IS the list scheduler (Section III-A), so
// every `ExecutionTimeModel::time()` virtual call and every re-derived
// bottom level sits on the hottest path of the whole system. A
// ProblemInstance precomputes, exactly once per (graph, model, cluster)
// triple:
//
//   * the topological order and precedence levels of the graph,
//   * the level grouping used by MCPA and the Delta-critical seed,
//   * bottom/top levels under the sequential (p = 1) execution times,
//   * a dense V x P execution-time table T[v][p] that turns the model's
//     virtual dispatch into an array lookup on every hot path.
//
// Thread-safety contract: instances are immutable after construction; the
// lazily-built blocks (time table, sequential levels) are built exactly
// once under std::call_once, so any number of threads may share one
// instance through a shared_ptr<const ProblemInstance>. The evaluation
// engine's slots, the heuristics, and the experiment drivers all hold the
// same instance instead of threading three loose references around.
//
// Ownership: create() shares ownership of its inputs (the instance keeps
// them alive); borrow() wraps caller-owned references for the adapter
// paths — the referents must outlive the instance (DESIGN.md section 9).

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "model/execution_time.hpp"
#include "platform/cluster.hpp"
#include "ptg/graph.hpp"

namespace ptgsched {

class ProblemInstance;

/// A pruned sub-problem: the not-yet-completed tasks of a base instance,
/// densely renumbered, on a (possibly smaller) cluster. Produced by
/// ProblemInstance::residual() for the fault simulator's reactive
/// rescheduling (DESIGN.md section 10); the id maps translate between the
/// base instance's TaskIds and the residual graph's.
struct ResidualProblem {
  /// Null when every base task was completed (nothing left to schedule).
  std::shared_ptr<const ProblemInstance> instance;
  std::vector<TaskId> to_base;    ///< residual id -> base id.
  std::vector<TaskId> from_base;  ///< base id -> residual id, or kInvalidTask.
};

class ProblemInstance
    : public std::enable_shared_from_this<ProblemInstance> {
 public:
  /// Owning construction: the instance shares ownership of graph, model and
  /// cluster, so it may outlive every other reference to them. Validates
  /// the graph once (consumers need not re-validate).
  [[nodiscard]] static std::shared_ptr<const ProblemInstance> create(
      std::shared_ptr<const Ptg> graph,
      std::shared_ptr<const ExecutionTimeModel> model,
      std::shared_ptr<const Cluster> cluster);

  /// Non-owning construction for the legacy reference-based call sites:
  /// the caller guarantees graph, model and cluster outlive the instance
  /// (and everything — schedulers, engines — holding it).
  [[nodiscard]] static std::shared_ptr<const ProblemInstance> borrow(
      const Ptg& graph, const ExecutionTimeModel& model,
      const Cluster& cluster);

  /// Prune the tasks marked true in `completed` (size = num_tasks()) and
  /// rebuild the problem over the survivors on `cluster`: the residual
  /// graph copies the surviving Task structs (and every edge between two
  /// survivors; edges from completed tasks are satisfied dependencies and
  /// drop out), shares this instance's execution-time model, and is
  /// validated like any created instance. With every task completed the
  /// returned instance is null. The model's lifetime follows this
  /// instance's ownership mode: a borrowed base instance yields a residual
  /// that borrows the same model, so the original referent must stay alive.
  [[nodiscard]] ResidualProblem residual(
      const std::vector<bool>& completed,
      std::shared_ptr<const Cluster> cluster) const;

  ProblemInstance(const ProblemInstance&) = delete;
  ProblemInstance& operator=(const ProblemInstance&) = delete;

  [[nodiscard]] const Ptg& graph() const noexcept { return *graph_; }
  [[nodiscard]] const ExecutionTimeModel& model() const noexcept {
    return *model_;
  }
  [[nodiscard]] const Cluster& cluster() const noexcept { return *cluster_; }

  [[nodiscard]] std::size_t num_tasks() const noexcept {
    return topo_.size();
  }
  [[nodiscard]] int num_processors() const noexcept { return p_; }

  // Structure (built eagerly; O(V + E)). -------------------------------
  [[nodiscard]] std::span<const TaskId> topo_order() const noexcept {
    return topo_;
  }

  // Dense CSR adjacency (built eagerly; O(V + E)). The mapping kernel
  // iterates successors once per fitness evaluation, so the edges live in
  // two flat arrays instead of Ptg's vector-of-vectors: the successors of
  // v are succ_adjacency()[succ_offsets()[v] .. succ_offsets()[v + 1]).
  [[nodiscard]] std::span<const std::uint32_t> succ_offsets() const noexcept {
    return succ_off_;
  }
  [[nodiscard]] std::span<const TaskId> succ_adjacency() const noexcept {
    return succ_adj_;
  }
  [[nodiscard]] std::span<const std::uint32_t> pred_offsets() const noexcept {
    return pred_off_;
  }
  [[nodiscard]] std::span<const TaskId> pred_adjacency() const noexcept {
    return pred_adj_;
  }
  /// Tasks with no predecessors, in id order (the initial ready set).
  [[nodiscard]] std::span<const TaskId> source_tasks() const noexcept {
    return sources_;
  }
  [[nodiscard]] std::span<const int> precedence_levels() const noexcept {
    return levels_;
  }
  [[nodiscard]] int num_levels() const noexcept { return num_levels_; }
  [[nodiscard]] const std::vector<std::vector<TaskId>>& tasks_by_level()
      const noexcept {
    return by_level_;
  }

  // Execution-time table (built once on first use). --------------------
  /// T(v, p) as a dense lookup; throws ModelError for p outside [1, P]
  /// exactly like the wrapped model would.
  [[nodiscard]] double time(TaskId v, int p) const;
  /// The whole row T(v, 1..P).
  [[nodiscard]] std::span<const double> times_of(TaskId v) const;
  /// The full row-major V x P table (hot paths cache .data() once and
  /// index it directly, bypassing even the call_once fast path).
  [[nodiscard]] std::span<const double> time_table() const;

  // Heterogeneous view (built once on first use). ----------------------
  /// True when the cluster carries per-processor speeds or link costs;
  /// allocations are then interpreted as task -> processor mappings (see
  /// ListScheduler) instead of moldable widths.
  [[nodiscard]] bool heterogeneous() const noexcept {
    return cluster_->heterogeneous();
  }
  /// Per-(task, processor) execution time T(v, 1) / relative_speed(proc)
  /// as a dense row-major V x P lookup. On homogeneous clusters every row
  /// entry equals T(v, 1) exactly.
  [[nodiscard]] std::span<const double> proc_time_table() const;
  /// One cell of proc_time_table(); throws ModelError out of range.
  [[nodiscard]] double proc_time(TaskId v, int proc) const;

  // Average-speed ranks (built once on first use). ---------------------
  // HEFT's rank_u / rank_d generalization of the bottom/top levels: task
  // weights are the mean of the per-processor row, edge weights are the
  // cluster's mean link cost. On homogeneous clusters they coincide with
  // the sequential levels.
  [[nodiscard]] std::span<const double> bottom_levels_avg() const;
  [[nodiscard]] std::span<const double> top_levels_avg() const;
  /// Critical-path length under average speeds (max bottom_levels_avg).
  [[nodiscard]] double avg_critical_path() const;

  // Sequential levels (built once on first use). -----------------------
  /// Bottom levels bl(v) under the all-ones allocation (T(v, 1) times).
  [[nodiscard]] std::span<const double> bottom_levels_seq() const;
  /// Top levels tl(v) under the all-ones allocation.
  [[nodiscard]] std::span<const double> top_levels_seq() const;
  /// Critical-path length under the all-ones allocation (max bl_seq).
  [[nodiscard]] double sequential_critical_path() const;

  /// Force-build every lazy block now (e.g. before handing the instance
  /// to worker threads, so no worker stalls on the one-time build).
  const ProblemInstance& warm() const;

 private:
  ProblemInstance(std::shared_ptr<const Ptg> graph,
                  std::shared_ptr<const ExecutionTimeModel> model,
                  std::shared_ptr<const Cluster> cluster);

  std::shared_ptr<const Ptg> graph_;
  std::shared_ptr<const ExecutionTimeModel> model_;
  std::shared_ptr<const Cluster> cluster_;
  int p_ = 0;

  std::vector<TaskId> topo_;
  std::vector<int> levels_;
  int num_levels_ = 0;
  std::vector<std::vector<TaskId>> by_level_;

  std::vector<std::uint32_t> succ_off_;  ///< CSR offsets, size V + 1.
  std::vector<TaskId> succ_adj_;         ///< CSR targets, size E.
  std::vector<std::uint32_t> pred_off_;
  std::vector<TaskId> pred_adj_;
  std::vector<TaskId> sources_;

  mutable std::once_flag table_once_;
  mutable std::vector<double> table_;  ///< Row-major V x P.
  mutable std::once_flag proc_table_once_;
  mutable std::vector<double> proc_table_;  ///< Row-major V x P (hetero).
  mutable std::once_flag avg_once_;
  mutable std::vector<double> bl_avg_;
  mutable std::vector<double> tl_avg_;
  mutable double avg_cp_ = 0.0;
  mutable std::once_flag seq_once_;
  mutable std::vector<double> bl_seq_;
  mutable std::vector<double> tl_seq_;
  mutable double seq_cp_ = 0.0;
};

}  // namespace ptgsched
