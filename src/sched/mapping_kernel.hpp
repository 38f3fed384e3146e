#pragma once
// MappingKernel — the data-oriented list-mapping engine behind both the
// single-cluster ListScheduler and the multi-cluster scheduler (Section
// III-A), successor of the MappingCore it replaces.
//
// "In the list scheduling algorithm used by EMTS, the ready nodes are
// sorted by decreasing bottom level and each ready node v is mapped to the
// first processor set that contains s(v) available processors."
//
// This pass is the EA's fitness function and therefore the hot loop of the
// whole system: every fitness evaluation is one complete pass. The kernel
// is laid out struct-of-arrays:
//
//   * flat per-task arrays for bottom level, data-ready time and
//     waiting-predecessor counts — no per-evaluation allocation, all
//     scratch sized once at construction;
//   * CSR successor iteration from the ProblemInstance's dense derived
//     data, with adjacency ids narrowed to the smallest capable index
//     type (State<uint16_t> for graphs up to 65535 tasks, State<uint32_t>
//     beyond — selected once at construction);
//   * a 4-ary max-heap for the ready queue (keys inline, half the tree
//     depth of the std::push_heap binary heap it replaces);
//   * per-lane processor availability kept as a run-length list: the
//     lane's free times as strictly ascending (time, count) runs. A lane
//     has one run per distinct free time (the finish times that are still
//     some processor's last, usually far fewer than P), and an occupy
//     writes one run however many processors the task takes. On
//     the value path only the multiset of free times matters, so this is
//     bit-identical to the old O(P) nth_element selection (see the
//     ReferenceMapper test oracle).
//
// Two execution paths with bit-identical makespans:
//   * value path (no Schedule requested): availability is the run list
//     above — the fitness fast path. earliest_start walks the runs until
//     the running count reaches the task's size; occupy_value takes the
//     task's s entries out of the runs (the front runs for
//     EarliestAvailable, the runs just below the start for BestFit) and
//     inserts one (finish, s) run, found by scanning from the back, or
//     adds s to a run of equal time;
//   * placement path (Schedule requested): processors are chosen by the
//     deterministic (available time, index) order, exactly as published.
//     Each lane keeps that order across the pass, so placing a task moves
//     only its s processors (occupy_placed). The run list is its query
//     structure: BestFit's rank of the start and the start time itself
//     come from it, and occupy_value updates it.
//
// Rejection (the paper's Section VI): a bounded pass aborts as soon as
// some task's start plus its bottom level exceeds the bound, since the
// final makespan provably will too.
//
// Heterogeneous mode (DESIGN.md §14). On a heterogeneous Cluster the
// driver (ListScheduler) builds the kernel with P one-processor lanes and
// interprets each gene as a processor index; durations come from the
// per-(task, processor) table, so the pass itself is unchanged. Link
// costs enter through exactly one point: the successor data-ready update
// charges comm(lane(v), lane(w)) on each edge. That hook is compiled in
// only when a comm context is set (set_comm_context; the kComm template
// flag below), so the homogeneous hot loop carries no comm code.
//
// Processor-selection policies (ablation EXP-A3):
//   * EarliestAvailable — take the s(v) processors that free up first;
//   * BestFit — among processors already free at the task's start time,
//     take the ones that became free *last*.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <span>
#include <variant>
#include <vector>

#include "core/problem_instance.hpp"
#include "ptg/graph.hpp"
#include "sched/schedule.hpp"
#include "support/dary_heap.hpp"
#include "support/small_index.hpp"

namespace ptgsched {

enum class ProcessorSelection { EarliestAvailable, BestFit };

/// One homogeneous processor pool the kernel schedules onto.
struct MappingLane {
  int num_processors = 0;
  /// Global index of the lane's first processor (0 for a single cluster;
  /// MultiClusterPlatform::first_processor(k) for lane k).
  int first_processor = 0;
};

class MappingKernel {
 public:
  /// `count` processors of a lane that become free at `time`.
  struct FreeRun {
    double time;
    std::size_t count;
  };

  /// Where a ready task runs, as decided by the placement policy.
  struct Placement {
    std::size_t lane = 0;
    std::size_t size = 0;  ///< Processors occupied, in [1, lane P].
    double start = 0.0;
    double finish = 0.0;
  };

  /// `instance` must outlive the kernel (the ListScheduler keeps it alive
  /// through its shared_ptr); its graph is already validated, so every
  /// pass may assume acyclicity.
  MappingKernel(const ProblemInstance& instance,
                std::vector<MappingLane> lanes);

  /// Earliest moment `size` processors of `lane` are simultaneously free,
  /// given the task's data-ready time: the time of the run where the
  /// running count of free processors reaches `size` (the size-th earliest
  /// free time). A pure query, so a policy may probe every lane before the
  /// kernel commits one.
  [[nodiscard]] double earliest_start(std::size_t lane, std::size_t size,
                                      double data_ready) const noexcept {
    const FreeRun* r = runs_.data() + lane_off_[lane];
    for (std::size_t c = r->count; c < size; c += (++r)->count) {
    }
    return std::max(data_ready, r->time);
  }

  /// Run one list-mapping pass. `priority_times` are the per-task times
  /// that define the bottom-level priority order. `place(v, data_ready)`
  /// returns the Placement for ready task v (typically via
  /// earliest_start). With `out` non-null the full schedule is emitted
  /// (placement path); otherwise only the makespan is computed (value
  /// path). As soon as some task's start plus its bottom level exceeds
  /// `upper_bound` the final makespan provably will too: the pass aborts,
  /// counts one rejection, and returns +infinity (the rejection strategy
  /// of the paper's Section VI).
  template <typename PlaceFn>
  double run(std::span<const double> priority_times,
             ProcessorSelection selection, double upper_bound, Schedule* out,
             const PlaceFn& place) {
    return std::visit(
        [&](auto& st) {
          compute_bottom_levels(st, priority_times);
          reset_dynamic_state(st, out != nullptr);
          if (comm_ != nullptr) {
            return drive<true>(st, selection, upper_bound, out, place);
          }
          return drive<false>(st, selection, upper_bound, out, place);
        },
        state_);
  }

  /// Install the heterogeneous communication context: `comm` is a
  /// row-major `stride` x `stride` link-cost matrix (seconds) indexed by
  /// lane, and `task_lane[v]` is the lane every placement for task v will
  /// name — the driver keeps the buffer current across passes (the kernel
  /// reads it when charging edge costs toward successors). Both pointers
  /// must stay valid until cleared.
  void set_comm_context(const double* comm, std::size_t stride,
                        const int* task_lane) noexcept {
    comm_ = comm;
    comm_stride_ = stride;
    task_lane_ = task_lane;
  }
  void clear_comm_context() noexcept {
    comm_ = nullptr;
    comm_stride_ = 0;
    task_lane_ = nullptr;
  }
  /// True when a communication context is installed (the kComm paths run).
  [[nodiscard]] bool comm_active() const noexcept { return comm_ != nullptr; }

  /// Lane k's free times as runs: strictly ascending times, positive
  /// counts summing to the lane's P. Read-only view for tests, valid until
  /// the next occupy (a place functor sees the state before its task).
  [[nodiscard]] std::span<const FreeRun> free_runs(std::size_t k) const {
    return {runs_.data() + lane_off_[k], run_count_[k]};
  }

  [[nodiscard]] std::size_t num_lanes() const noexcept {
    return lanes_.size();
  }
  [[nodiscard]] const MappingLane& lane(std::size_t k) const {
    return lanes_[k];
  }
  [[nodiscard]] std::size_t num_tasks() const noexcept { return n_; }

  /// Number of passes rejected early by the upper bound since construction
  /// or the last reset_stats(). Atomic (relaxed): the evaluation engine
  /// reads and resets telemetry concurrently with in-flight slot
  /// evaluations, so the counter must tolerate torn access without a data
  /// race (each kernel is still driven by one thread at a time; only the
  /// telemetry crosses threads).
  [[nodiscard]] std::size_t rejected_count() const noexcept {
    return rejected_.load(std::memory_order_relaxed);
  }

  void reset_stats() noexcept {
    rejected_.store(0, std::memory_order_relaxed);
  }

 private:
  /// All Idx-typed data, instantiated for the smallest capable index type
  /// (one of the two variant alternatives below; uint8 is not worth a
  /// third instantiation). Static arrays are built once at construction;
  /// the scratch below them is reset per pass.
  template <typename Idx>
  struct State {
    std::vector<Idx> topo;      ///< Topological order.
    std::vector<Idx> succ_adj;  ///< CSR targets (offsets on the instance).
    std::vector<Idx> in_degree;
    std::vector<Idx> sources;

    struct ReadyEntry {
      double bl;
      Idx id;
    };
    struct ReadyBetter {
      bool operator()(const ReadyEntry& a,
                      const ReadyEntry& b) const noexcept {
        // Strict total order (bottom level desc, id asc): the pop sequence
        // is then independent of heap shape, so every pass over the same
        // keys pops the same sequence.
        if (a.bl != b.bl) return a.bl > b.bl;
        return a.id < b.id;
      }
    };

    std::vector<Idx> waiting;  ///< Unfinished-predecessor counts.
    DaryHeap<ReadyEntry, ReadyBetter> ready;

    void init(const ProblemInstance& pi);
  };

  template <typename Idx>
  void compute_bottom_levels(State<Idx>& st,
                             std::span<const double> priority_times) {
    const std::uint32_t* off = succ_off_;
    const Idx* adj = st.succ_adj.data();
    for (std::size_t i = n_; i-- > 0;) {
      const auto v = static_cast<std::size_t>(st.topo[i]);
      double best = 0.0;
      for (std::uint32_t e = off[v]; e < off[v + 1]; ++e) {
        best = std::max(best, bl_[static_cast<std::size_t>(adj[e])]);
      }
      bl_[v] = priority_times[v] + best;
    }
  }

  template <typename Idx>
  void reset_dynamic_state(State<Idx>& st, bool placement) {
    // Every processor is free at 0: one run per lane.
    for (std::size_t k = 0; k < lanes_.size(); ++k) {
      runs_[lane_off_[k]] = {0.0, lane_off_[k + 1] - lane_off_[k]};
      run_count_[k] = 1;
    }
    if (placement) {
      std::fill(proc_avail_.begin(), proc_avail_.end(), 0.0);
      // Every processor is free at 0, so (free time, index) order is
      // index order.
      for (std::size_t k = 0; k < lanes_.size(); ++k) {
        int* order = proc_order_.data() + lane_off_[k];
        for (std::size_t i = 0; i < lane_off_[k + 1] - lane_off_[k]; ++i) {
          order[i] = static_cast<int>(i);
        }
      }
    }
    std::fill(data_ready_.begin(), data_ready_.end(), 0.0);
    std::copy(st.in_degree.begin(), st.in_degree.end(), st.waiting.begin());
    st.ready.clear();
    for (const Idx s : st.sources) {
      st.ready.push({bl_[static_cast<std::size_t>(s)], s});
    }
  }

  /// The main loop: pops the ready queue to completion from the state
  /// reset_dynamic_state leaves. With kComm, each successor update charges
  /// the link cost from the popped task's lane to the successor's (the
  /// only point where the heterogeneous cost matrix enters).
  template <bool kComm, typename Idx, typename PlaceFn>
  double drive(State<Idx>& st, ProcessorSelection selection,
               double upper_bound, Schedule* out, const PlaceFn& place) {
    const std::uint32_t* soff = succ_off_;
    const Idx* sadj = st.succ_adj.data();
    std::size_t pops = 0;
    double makespan = 0.0;
    while (!st.ready.empty()) {
      const auto top = st.ready.pop();
      const auto v = static_cast<TaskId>(top.id);
      const Placement p = place(v, data_ready_[v]);
      if (p.finish > makespan) makespan = p.finish;

      // Once v starts at p.start, the final makespan is at least
      // start + bl(v) — the chain below v still has to run.
      const double press = p.start + top.bl;
      if (press > upper_bound) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        return std::numeric_limits<double>::infinity();
      }

      occupy(v, p, selection, out);

      ++pops;
      for (std::uint32_t e = soff[v]; e < soff[v + 1]; ++e) {
        const auto w = static_cast<std::size_t>(sadj[e]);
        double arrive = p.finish;
        if constexpr (kComm) {
          arrive += comm_[p.lane * comm_stride_ +
                          static_cast<std::size_t>(task_lane_[w])];
        }
        data_ready_[w] = std::max(data_ready_[w], arrive);
        if (--st.waiting[w] == 0) {
          st.ready.push({bl_[w], static_cast<Idx>(w)});
        }
      }
    }
    if (pops != n_) {
      throw GraphError("mapping kernel: graph has a cycle");
    }
    return makespan;
  }

  /// Number of the lane's free times that are <= x: the running count
  /// over the runs whose time is <= x.
  static std::size_t rank_leq(const FreeRun* r, std::size_t runs,
                              double x) noexcept {
    std::size_t c = 0;
    for (std::size_t i = 0; i < runs && r[i].time <= x; ++i) c += r[i].count;
    return c;
  }

  /// Value-path occupy: only the multiset of free times matters, and the
  /// lane keeps it as ascending (time, count) runs, so occupying is: take
  /// s entries out of the runs and add s entries of p.finish. Multiset-
  /// identical to the reference nth_element update.
  /// EarliestAvailable takes the s smallest entries, from the front runs;
  /// BestFit takes the s largest entries that are <= p.start, from the
  /// runs just below the first run later than p.start (at least s such
  /// entries exist, by construction of the start time). Every taken entry
  /// is <= p.start <= p.finish, so the new (p.finish, s) run lands above
  /// all runs that were emptied; it merges into a run of equal time if one
  /// survives, so the run times stay strictly ascending.
  void occupy_value(const Placement& p, ProcessorSelection selection) {
    FreeRun* r = runs_.data() + lane_off_[p.lane];
    std::size_t& n = run_count_[p.lane];
    // Runs [gone, kept) are emptied by the take.
    std::size_t gone = 0;
    std::size_t kept = 0;
    std::size_t left = p.size;
    if (selection == ProcessorSelection::BestFit) {
      while (kept < n && r[kept].time <= p.start) ++kept;
      gone = kept;
      while (left > 0 && r[gone - 1].count <= left) {
        left -= r[gone - 1].count;
        --gone;
      }
      if (left > 0) r[gone - 1].count -= left;
    } else {
      while (left > 0 && r[kept].count <= left) {
        left -= r[kept].count;
        ++kept;
      }
      if (left > 0) r[kept].count -= left;
    }

    // Insertion point among the runs above the emptied ones, scanning from
    // the back, where finish times mostly land.
    std::size_t j = n;
    while (j > kept && r[j - 1].time > p.finish) --j;
    FreeRun* below = nullptr;  // The surviving run just below the insertion.
    if (j > kept) {
      below = r + j - 1;
    } else if (gone > 0) {
      below = r + gone - 1;
    }
    const std::size_t emptied = kept - gone;
    if (below != nullptr && below->time == p.finish) {
      below->count += p.size;
      if (emptied > 0) {
        std::move(r + kept, r + n, r + gone);
        n -= emptied;
      }
      return;
    }
    if (emptied == 0) {
      std::move_backward(r + j, r + n, r + n + 1);
      r[j] = {p.finish, p.size};
      ++n;
      return;
    }
    std::move(r + kept, r + j, r + gone);
    r[j - emptied] = {p.finish, p.size};
    if (emptied > 1) {
      std::move(r + j, r + n, r + j - emptied + 1);
      n -= emptied - 1;
    }
  }

  void occupy(TaskId v, const Placement& p, ProcessorSelection selection,
              Schedule* out) {
    if (out == nullptr) {
      occupy_value(p, selection);
      return;
    }
    occupy_placed(v, p, selection, out);
  }

  /// Placement-path occupy: names the processors. Each lane keeps its
  /// processor indices ordered by (free time, index) across the pass
  /// (proc_order_), so a placement reads its s processors off that order
  /// — the first s (EarliestAvailable) or the last s free at p.start
  /// (BestFit, counted by rank_leq on the run list) — and merges just
  /// that run back at its (finish, index) position. The run list
  /// earliest_start reads is then updated by occupy_value, which yields
  /// the same multiset as copying and sorting the free times.
  void occupy_placed(TaskId v, const Placement& p,
                     ProcessorSelection selection, Schedule* out);

  std::vector<MappingLane> lanes_;
  std::size_t n_ = 0;
  const std::uint32_t* succ_off_ = nullptr;  ///< Instance CSR offsets.

  std::vector<std::size_t> lane_off_;  ///< Lane k: [lane_off_[k], [k+1]).
  /// Per lane, at lane_off_ (capacity P, since every run counts at least
  /// one processor): the lane's free times as strictly ascending runs
  /// (value path; also the placement path's query list). Lane k uses the
  /// first run_count_[k] entries.
  std::vector<FreeRun> runs_;
  std::vector<std::size_t> run_count_;
  std::vector<double> proc_avail_;  ///< Per processor (placement path).
  /// Per lane, at lane_off_: the lane's processor indices ordered by
  /// (proc_avail_, index) — placement-path scratch, reset per pass.
  std::vector<int> proc_order_;
  std::vector<double> bl_;
  std::vector<double> data_ready_;
  std::atomic<std::size_t> rejected_{0};

  /// Heterogeneous communication context (set_comm_context): row-major
  /// lane-to-lane link costs, their stride, and the driver-maintained
  /// per-task lane buffer the successor updates read. Null outside comm
  /// mode — every pass then compiles the kComm=false (pre-hetero) loops.
  const double* comm_ = nullptr;
  std::size_t comm_stride_ = 0;
  const int* task_lane_ = nullptr;

  std::variant<State<std::uint16_t>, State<std::uint32_t>> state_;
};

}  // namespace ptgsched
