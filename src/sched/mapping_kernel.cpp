#include "sched/mapping_kernel.hpp"

#include <cstring>
#include <stdexcept>

namespace ptgsched {

template <typename Idx>
void MappingKernel::State<Idx>::init(const ProblemInstance& pi) {
  const std::size_t n = pi.num_tasks();
  const auto narrow = [](TaskId v) { return static_cast<Idx>(v); };

  topo.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    topo[i] = narrow(pi.topo_order()[i]);
  }
  succ_adj.resize(pi.succ_adjacency().size());
  for (std::size_t e = 0; e < succ_adj.size(); ++e) {
    succ_adj[e] = narrow(pi.succ_adjacency()[e]);
  }
  in_degree.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    in_degree[v] =
        static_cast<Idx>(pi.pred_offsets()[v + 1] - pi.pred_offsets()[v]);
  }
  sources.resize(pi.source_tasks().size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    sources[i] = narrow(pi.source_tasks()[i]);
  }

  // Scratch, sized once here so passes never allocate.
  waiting.resize(n);
  ready.reserve(n);
}

template struct MappingKernel::State<std::uint16_t>;
template struct MappingKernel::State<std::uint32_t>;

MappingKernel::MappingKernel(const ProblemInstance& instance,
                             std::vector<MappingLane> lanes)
    : lanes_(std::move(lanes)) {
  if (lanes_.empty()) {
    throw std::invalid_argument("MappingKernel: no lanes");
  }
  n_ = instance.num_tasks();
  succ_off_ = instance.succ_offsets().data();

  lane_off_.assign(lanes_.size() + 1, 0);
  std::size_t max_procs = 0;
  for (std::size_t k = 0; k < lanes_.size(); ++k) {
    if (lanes_[k].num_processors < 1) {
      throw std::invalid_argument("MappingKernel: empty lane");
    }
    const auto procs = static_cast<std::size_t>(lanes_[k].num_processors);
    lane_off_[k + 1] = lane_off_[k] + procs;
    max_procs = std::max(max_procs, procs);
  }
  slack_off_.assign(lanes_.size() + 1, 0);
  for (std::size_t k = 0; k < lanes_.size(); ++k) {
    slack_off_[k + 1] =
        slack_off_[k] + kAvailSlackFactor * (lane_off_[k + 1] - lane_off_[k]);
  }
  lane_head_.assign(lanes_.size(), 0);
  sorted_avail_.assign(slack_off_.back(), 0.0);
  proc_avail_.assign(lane_off_.back(), 0.0);
  proc_order_.reserve(max_procs);
  bl_.assign(n_, 0.0);
  data_ready_.assign(n_, 0.0);

  if (n_ <= UINT16_MAX) {
    state_.emplace<State<std::uint16_t>>().init(instance);
  } else {
    state_.emplace<State<std::uint32_t>>().init(instance);
  }
}

void MappingKernel::occupy_placed(TaskId v, const Placement& p,
                                  ProcessorSelection selection,
                                  Schedule* out) {
  double* av = sorted_avail_.data() + slack_off_[p.lane] + lane_head_[p.lane];
  const std::size_t procs = lane_off_[p.lane + 1] - lane_off_[p.lane];
  const std::size_t s = p.size;

  // Placement path: deterministic processor identities. Sort processor
  // indices by (available time, index): proc_order_[k] is the k-th
  // processor of the lane to become free.
  double* pv = proc_avail_.data() + lane_off_[p.lane];
  proc_order_.resize(procs);
  for (std::size_t i = 0; i < procs; ++i) {
    proc_order_[i] = static_cast<int>(i);
  }
  std::sort(proc_order_.begin(), proc_order_.end(), [pv](int a, int b) {
    const auto ua = static_cast<std::size_t>(a);
    const auto ub = static_cast<std::size_t>(b);
    if (pv[ua] != pv[ub]) return pv[ua] < pv[ub];
    return a < b;
  });

  std::size_t first = 0;
  if (selection == ProcessorSelection::BestFit) {
    // Last s processors whose availability is still <= start: keeps the
    // earliest-free processors open for later ready tasks.
    std::size_t eligible = s;
    while (eligible < procs &&
           pv[static_cast<std::size_t>(proc_order_[eligible])] <= p.start) {
      ++eligible;
    }
    first = eligible - s;
  }

  PlacedTask placed;
  placed.task = v;
  placed.start = p.start;
  placed.finish = p.finish;
  placed.processors.reserve(s);
  const int base = lanes_[p.lane].first_processor;
  for (std::size_t k = first; k < first + s; ++k) {
    pv[static_cast<std::size_t>(proc_order_[k])] = p.finish;
    placed.processors.push_back(base + proc_order_[k]);
  }
  std::sort(placed.processors.begin(), placed.processors.end());
  out->add(std::move(placed));

  // Refresh the sorted query mirror for this lane so earliest_start stays
  // an O(1) read on the placement path too (cold path; the sort matches
  // the per-pop cost the placement path already pays).
  std::copy(pv, pv + procs, av);
  std::sort(av, av + procs);
}

}  // namespace ptgsched
