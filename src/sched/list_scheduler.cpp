#include "sched/list_scheduler.hpp"

#include <stdexcept>

namespace ptgsched {

namespace {
std::shared_ptr<const ProblemInstance> require_instance(
    std::shared_ptr<const ProblemInstance> instance) {
  if (instance == nullptr) {
    throw std::invalid_argument("ListScheduler: null problem instance");
  }
  return instance;
}

std::vector<MappingLane> make_lanes(const ProblemInstance& instance) {
  if (!instance.heterogeneous()) {
    return {MappingLane{instance.num_processors(), 0}};
  }
  // Heterogeneous mode: one lane per processor, so a gene names a lane and
  // the pass itself is the homogeneous one.
  std::vector<MappingLane> lanes;
  lanes.reserve(static_cast<std::size_t>(instance.num_processors()));
  for (int j = 0; j < instance.num_processors(); ++j) {
    lanes.push_back(MappingLane{1, j});
  }
  return lanes;
}
}  // namespace

ListScheduler::ListScheduler(std::shared_ptr<const ProblemInstance> instance,
                             ListSchedulerOptions options)
    : instance_(require_instance(std::move(instance))),
      options_(options),
      hetero_(instance_->heterogeneous()),
      core_(*instance_, make_lanes(*instance_)),
      table_(hetero_ ? instance_->proc_time_table().data()
                     : instance_->time_table().data()),
      times_(instance_->num_tasks()) {
  if (hetero_ && instance_->cluster().has_comm_costs()) {
    lane_of_.assign(instance_->num_tasks(), 0);
    core_.set_comm_context(
        instance_->cluster().comm_matrix().data(),
        static_cast<std::size_t>(instance_->num_processors()),
        lane_of_.data());
  }
}

ListScheduler::ListScheduler(const Ptg& g, const Cluster& cluster,
                             const ExecutionTimeModel& model,
                             ListSchedulerOptions options)
    : ListScheduler(ProblemInstance::borrow(g, model, cluster), options) {}

double ListScheduler::makespan(const Allocation& alloc) {
  return run(alloc, nullptr);
}

double ListScheduler::makespan_bounded(const Allocation& alloc,
                                       double upper_bound) {
  return run(alloc, nullptr, upper_bound);
}

Schedule ListScheduler::build_schedule(const Allocation& alloc) {
  Schedule out(instance_->graph().name(), instance_->num_processors());
  run(alloc, &out);
  return out;
}

void ListScheduler::load_times(const Allocation& alloc) {
  validate_allocation(alloc, instance_->graph(), instance_->cluster());
  const std::size_t n = instance_->num_tasks();
  const auto stride = static_cast<std::size_t>(instance_->num_processors());
  for (TaskId v = 0; v < n; ++v) {
    times_[v] = table_[v * stride + static_cast<std::size_t>(alloc[v] - 1)];
  }
  if (!lane_of_.empty()) {
    for (TaskId v = 0; v < n; ++v) lane_of_[v] = alloc[v] - 1;
  }
}

double ListScheduler::run(const Allocation& alloc, Schedule* out,
                          double upper_bound) {
  load_times(alloc);
  return with_place(alloc, [&](const auto& place) {
    return core_.run(times_, options_.selection, upper_bound, out, place);
  });
}

Schedule map_allocation(const Ptg& g, const Allocation& alloc,
                        const ExecutionTimeModel& model,
                        const Cluster& cluster,
                        ListSchedulerOptions options) {
  ListScheduler sched(g, cluster, model, options);
  return sched.build_schedule(alloc);
}

}  // namespace ptgsched
