#include "sched/mapping_kernel.hpp"

#include <algorithm>
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
  for (std::size_t k = 0; k < lanes_.size(); ++k) {
    if (lanes_[k].num_processors < 1) {
      throw std::invalid_argument("MappingKernel: empty lane");
    }
    const auto procs = static_cast<std::size_t>(lanes_[k].num_processors);
    lane_off_[k + 1] = lane_off_[k] + procs;
  }
  runs_.assign(lane_off_.back(), FreeRun{0.0, 0});
  run_count_.assign(lanes_.size(), 0);
  proc_avail_.assign(lane_off_.back(), 0.0);
  proc_order_.assign(lane_off_.back(), 0);
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
  const std::size_t procs = lane_off_[p.lane + 1] - lane_off_[p.lane];
  const std::size_t s = p.size;
  double* pv = proc_avail_.data() + lane_off_[p.lane];
  // The lane's processor indices by (available time, index): order[k] is
  // the k-th processor of the lane to become free.
  int* order = proc_order_.data() + lane_off_[p.lane];

  std::size_t first = 0;
  if (selection == ProcessorSelection::BestFit) {
    // Last s processors whose availability is still <= start: keeps the
    // earliest-free processors open for later ready tasks. The run list
    // holds the same free times, so its rank of the start time is the
    // number of such processors.
    first = rank_leq(runs_.data() + lane_off_[p.lane], run_count_[p.lane],
                     p.start) -
            s;
  }

  PlacedTask placed;
  placed.task = v;
  placed.start = p.start;
  placed.finish = p.finish;
  placed.processors.assign(order + first, order + first + s);
  std::sort(placed.processors.begin(), placed.processors.end());

  // Re-insert the chosen run at its (finish, index) position: every entry
  // before the run is free no later than start <= finish, so the run only
  // moves toward the back, merging by index with the tail entries that
  // also free up at `finish`.
  std::size_t dst = first;
  std::size_t src = first + s;
  for (std::size_t c = 0; c < s;) {
    const int chosen = placed.processors[c];
    if (src < procs) {
      const int q = order[src];
      const double t = pv[static_cast<std::size_t>(q)];
      if (t < p.finish || (t == p.finish && q < chosen)) {
        order[dst++] = q;
        ++src;
        continue;
      }
    }
    order[dst++] = chosen;
    pv[static_cast<std::size_t>(chosen)] = p.finish;
    ++c;
  }

  const int base = lanes_[p.lane].first_processor;
  for (int& proc : placed.processors) proc += base;
  out->add(std::move(placed));

  // The run list loses the s chosen free times (the entries of rank
  // [first, first + s)) and gains s copies of the finish: exactly the
  // value-path update.
  occupy_value(p, selection);
}

}  // namespace ptgsched
