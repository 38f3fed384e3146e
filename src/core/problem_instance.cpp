#include "core/problem_instance.hpp"

#include <algorithm>
#include <string>

#include "ptg/algorithms.hpp"

namespace ptgsched {

ProblemInstance::ProblemInstance(
    std::shared_ptr<const Ptg> graph,
    std::shared_ptr<const ExecutionTimeModel> model,
    std::shared_ptr<const Cluster> cluster)
    : graph_(std::move(graph)),
      model_(std::move(model)),
      cluster_(std::move(cluster)) {
  if (graph_ == nullptr || model_ == nullptr || cluster_ == nullptr) {
    throw std::invalid_argument(
        "ProblemInstance: graph, model and cluster must be non-null");
  }
  graph_->validate();
  p_ = cluster_->num_processors();
  topo_ = topological_order(*graph_);
  // Qualified: the accessor of the same name hides the free function here.
  levels_ = ptgsched::precedence_levels(*graph_);
  num_levels_ = levels_.empty()
                    ? 0
                    : *std::max_element(levels_.begin(), levels_.end()) + 1;
  by_level_.resize(static_cast<std::size_t>(num_levels_));
  for (TaskId v = 0; v < graph_->num_tasks(); ++v) {
    by_level_[static_cast<std::size_t>(levels_[v])].push_back(v);
  }

  // Dense derived data for the mapping kernel: CSR adjacency in both
  // directions and the source-task list. Built eagerly so residual
  // instances (reactive rescheduling) inherit them for free.
  const std::size_t n = topo_.size();
  succ_off_.assign(n + 1, 0);
  pred_off_.assign(n + 1, 0);
  for (TaskId v = 0; v < n; ++v) {
    for (const TaskId w : graph_->successors(v)) {
      ++succ_off_[v + 1];
      ++pred_off_[w + 1];
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    succ_off_[v + 1] += succ_off_[v];
    pred_off_[v + 1] += pred_off_[v];
  }
  succ_adj_.resize(succ_off_[n]);
  pred_adj_.resize(pred_off_[n]);
  std::vector<std::uint32_t> succ_fill(succ_off_.begin(), succ_off_.end() - 1);
  std::vector<std::uint32_t> pred_fill(pred_off_.begin(), pred_off_.end() - 1);
  for (TaskId v = 0; v < n; ++v) {
    for (const TaskId w : graph_->successors(v)) {
      succ_adj_[succ_fill[v]++] = w;
      pred_adj_[pred_fill[w]++] = v;
    }
    if (graph_->in_degree(v) == 0) sources_.push_back(v);
  }
}

std::shared_ptr<const ProblemInstance> ProblemInstance::create(
    std::shared_ptr<const Ptg> graph,
    std::shared_ptr<const ExecutionTimeModel> model,
    std::shared_ptr<const Cluster> cluster) {
  return std::shared_ptr<const ProblemInstance>(new ProblemInstance(
      std::move(graph), std::move(model), std::move(cluster)));
}

std::shared_ptr<const ProblemInstance> ProblemInstance::borrow(
    const Ptg& graph, const ExecutionTimeModel& model,
    const Cluster& cluster) {
  // Aliasing shared_ptrs with no control block: the instance references the
  // caller's objects without owning them.
  return create(std::shared_ptr<const Ptg>(std::shared_ptr<const Ptg>{},
                                           &graph),
                std::shared_ptr<const ExecutionTimeModel>(
                    std::shared_ptr<const ExecutionTimeModel>{}, &model),
                std::shared_ptr<const Cluster>(
                    std::shared_ptr<const Cluster>{}, &cluster));
}

ResidualProblem ProblemInstance::residual(
    const std::vector<bool>& completed,
    std::shared_ptr<const Cluster> cluster) const {
  if (completed.size() != num_tasks()) {
    throw std::invalid_argument(
        "ProblemInstance::residual: completed mask size " +
        std::to_string(completed.size()) + " != task count " +
        std::to_string(num_tasks()));
  }
  if (cluster == nullptr) {
    throw std::invalid_argument("ProblemInstance::residual: null cluster");
  }

  ResidualProblem out;
  out.from_base.assign(num_tasks(), kInvalidTask);
  auto residual_graph = std::make_shared<Ptg>(graph_->name());
  for (TaskId v = 0; v < num_tasks(); ++v) {
    if (completed[v]) continue;
    out.from_base[v] = residual_graph->add_task(graph_->task(v));
    out.to_base.push_back(v);
  }
  if (out.to_base.empty()) return out;

  // Only edges between two survivors carry a constraint; an edge out of a
  // completed task is a dependency that has already been satisfied.
  for (const TaskId v : out.to_base) {
    for (const TaskId w : graph_->successors(v)) {
      if (out.from_base[w] != kInvalidTask) {
        residual_graph->add_edge(out.from_base[v], out.from_base[w]);
      }
    }
  }
  out.instance = create(std::move(residual_graph), model_, std::move(cluster));
  return out;
}

std::span<const double> ProblemInstance::time_table() const {
  std::call_once(table_once_, [this] {
    const std::size_t n = num_tasks();
    table_.resize(n * static_cast<std::size_t>(p_));
    for (TaskId v = 0; v < n; ++v) {
      double* row = table_.data() + v * static_cast<std::size_t>(p_);
      for (int p = 1; p <= p_; ++p) {
        row[p - 1] = model_->time(graph_->task(v), p, *cluster_);
      }
    }
  });
  return table_;
}

double ProblemInstance::time(TaskId v, int p) const {
  if (v >= num_tasks()) {
    throw ModelError("ProblemInstance::time: unknown task id " +
                     std::to_string(v));
  }
  if (p < 1 || p > p_) {
    throw ModelError("ProblemInstance::time: p = " + std::to_string(p) +
                     " outside [1, " + std::to_string(p_) + "]");
  }
  return time_table()[v * static_cast<std::size_t>(p_) +
                      static_cast<std::size_t>(p - 1)];
}

std::span<const double> ProblemInstance::times_of(TaskId v) const {
  if (v >= num_tasks()) {
    throw ModelError("ProblemInstance::times_of: unknown task id " +
                     std::to_string(v));
  }
  return time_table().subspan(v * static_cast<std::size_t>(p_),
                              static_cast<std::size_t>(p_));
}

std::span<const double> ProblemInstance::proc_time_table() const {
  std::call_once(proc_table_once_, [this] {
    const std::size_t n = num_tasks();
    proc_table_.resize(n * static_cast<std::size_t>(p_));
    for (TaskId v = 0; v < n; ++v) {
      const double t1 = model_->time(graph_->task(v), 1, *cluster_);
      double* row = proc_table_.data() + v * static_cast<std::size_t>(p_);
      for (int j = 0; j < p_; ++j) {
        // 1.0 speeds reproduce t1 exactly (degeneracy identity).
        row[j] = t1 / cluster_->relative_speed(j);
      }
    }
  });
  return proc_table_;
}

double ProblemInstance::proc_time(TaskId v, int proc) const {
  if (v >= num_tasks()) {
    throw ModelError("ProblemInstance::proc_time: unknown task id " +
                     std::to_string(v));
  }
  if (proc < 0 || proc >= p_) {
    throw ModelError("ProblemInstance::proc_time: processor " +
                     std::to_string(proc) + " outside [0, " +
                     std::to_string(p_) + ")");
  }
  return proc_time_table()[v * static_cast<std::size_t>(p_) +
                           static_cast<std::size_t>(proc)];
}

std::span<const double> ProblemInstance::bottom_levels_avg() const {
  std::call_once(avg_once_, [this] {
    const std::size_t n = num_tasks();
    const std::span<const double> table = proc_time_table();
    const double cbar = cluster_->mean_comm_cost();
    // Mean of the per-processor row = HEFT's w_i average task weight.
    std::vector<double> wbar(n);
    for (TaskId v = 0; v < n; ++v) {
      const double* row = table.data() + v * static_cast<std::size_t>(p_);
      double sum = 0.0;
      for (int j = 0; j < p_; ++j) sum += row[j];
      wbar[v] = sum / static_cast<double>(p_);
    }
    bl_avg_.assign(n, 0.0);
    tl_avg_.assign(n, 0.0);
    for (std::size_t i = n; i-- > 0;) {
      const TaskId v = topo_[i];
      double best = 0.0;
      for (std::uint32_t e = succ_off_[v]; e < succ_off_[v + 1]; ++e) {
        best = std::max(best, cbar + bl_avg_[succ_adj_[e]]);
      }
      bl_avg_[v] = wbar[v] + best;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const TaskId v = topo_[i];
      double best = 0.0;
      for (std::uint32_t e = pred_off_[v]; e < pred_off_[v + 1]; ++e) {
        const TaskId u = pred_adj_[e];
        best = std::max(best, tl_avg_[u] + wbar[u] + cbar);
      }
      tl_avg_[v] = best;
    }
    avg_cp_ = bl_avg_.empty()
                  ? 0.0
                  : *std::max_element(bl_avg_.begin(), bl_avg_.end());
  });
  return bl_avg_;
}

std::span<const double> ProblemInstance::top_levels_avg() const {
  (void)bottom_levels_avg();
  return tl_avg_;
}

double ProblemInstance::avg_critical_path() const {
  (void)bottom_levels_avg();
  return avg_cp_;
}

std::span<const double> ProblemInstance::bottom_levels_seq() const {
  std::call_once(seq_once_, [this] {
    const std::span<const double> table = time_table();
    const auto seq_time = [&](TaskId v) {
      return table[v * static_cast<std::size_t>(p_)];
    };
    bottom_levels_into(*graph_, topo_, seq_time, bl_seq_);
    tl_seq_ = top_levels(*graph_, seq_time);
    seq_cp_ = bl_seq_.empty()
                  ? 0.0
                  : *std::max_element(bl_seq_.begin(), bl_seq_.end());
  });
  return bl_seq_;
}

std::span<const double> ProblemInstance::top_levels_seq() const {
  (void)bottom_levels_seq();
  return tl_seq_;
}

double ProblemInstance::sequential_critical_path() const {
  (void)bottom_levels_seq();
  return seq_cp_;
}

const ProblemInstance& ProblemInstance::warm() const {
  (void)time_table();
  (void)bottom_levels_seq();
  if (heterogeneous()) {
    (void)proc_time_table();
    (void)bottom_levels_avg();
  }
  return *this;
}

}  // namespace ptgsched
