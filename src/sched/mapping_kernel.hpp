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
//   * per-lane processor availability kept as a *sorted* array of free
//     times, making earliest_start an O(1) read and occupy a single
//     rank search + memmove. On the value path only the multiset of free
//     times matters, so this is bit-identical to the old O(P)
//     nth_element selection (see the ReferenceMapper test oracle).
//
// Two execution paths with bit-identical makespans:
//   * value path (no Schedule requested): availability is the sorted
//     multiset above — the fitness fast path. Each lane's sorted free
//     times live in a sliding window inside a slack region
//     (kAvailSlackFactor x P), so occupy_value's remove-front /
//     insert-mid update moves the cheaper side only, and the insertion
//     rank comes from a branchless binary search. BestFit's rank of the
//     start time is a branch-free counting scan that auto-vectorizes
//     (binary search on lanes wider than kLinearScanMaxProcs);
//   * placement path (Schedule requested): processors are chosen by the
//     deterministic (available time, index) order, exactly as published.
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
#include <cstring>
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
  /// given the task's data-ready time. Pure O(1) query on the sorted
  /// availability (the size-th earliest free time), so a policy may probe
  /// every lane before the kernel commits one.
  [[nodiscard]] double earliest_start(std::size_t lane, std::size_t size,
                                      double data_ready) const noexcept {
    const double* av =
        sorted_avail_.data() + slack_off_[lane] + lane_head_[lane];
    return std::max(data_ready, av[size - 1]);
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
    for (std::size_t k = 0; k < lanes_.size(); ++k) {
      lane_head_[k] = 0;
      double* av = sorted_avail_.data() + slack_off_[k];
      std::fill(av, av + (lane_off_[k + 1] - lane_off_[k]), 0.0);
    }
    if (placement) {
      std::fill(proc_avail_.begin(), proc_avail_.end(), 0.0);
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
        if (arrive > data_ready_[w]) data_ready_[w] = arrive;
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

  /// Lanes wider than this use binary search in occupy_value; at cluster
  /// scale (P <= a few hundred) the branch-free counting scan wins.
  static constexpr std::size_t kLinearScanMaxProcs = 512;

  /// Number of entries of the ascending-sorted a[0 .. count) that are
  /// <= x — exactly `upper_bound(a, a + count, x) - a`, as a branch-free
  /// counting scan over the lane's processor-contiguous free times (the
  /// plain loop auto-vectorizes). Exact by sortedness: every element <= x
  /// precedes every element > x, so the count IS the partition point.
  static std::size_t count_leq(const double* a, std::size_t count,
                               double x) noexcept {
    std::size_t c = 0;
    for (std::size_t i = 0; i < count; ++i) {
      c += static_cast<std::size_t>(a[i] <= x);
    }
    return c;
  }

  static std::size_t sorted_rank(const double* a, std::size_t count,
                                 double x) noexcept {
    if (count <= kLinearScanMaxProcs) return count_leq(a, count, x);
    return static_cast<std::size_t>(std::upper_bound(a, a + count, x) - a);
  }

  /// Value-path occupy: only the multiset of free times matters, and the
  /// lane keeps it sorted ascending, so occupying is: drop the s chosen
  /// times and write s copies of p.finish at its sorted position.
  /// Multiset-identical to the reference nth_element update.
  /// EarliestAvailable drops av[0 .. s); BestFit drops the last s of the
  /// entries already free at p.start (at least s of them, by construction
  /// of the start time).
  ///
  /// Each lane is a sliding window inside a slack region of
  /// kAvailSlackFactor x P doubles: EarliestAvailable removes from the
  /// FRONT while finish times mostly insert near the BACK, so shifting
  /// whichever side of the insertion point is shorter (advancing the
  /// window head when the back side wins) turns the old
  /// shift-almost-the-whole-lane memmove into a few-element move. The
  /// insertion rank is found by a branchless binary search: finish times
  /// land mid-lane often enough (measured mean rank ~P/3 from the back on
  /// batches of single-gene mutants) that both the backward linear probe and the
  /// branch-free forward count walk an order of magnitude more entries
  /// than the log2(P) halvings do.
  void occupy_value(const Placement& p, ProcessorSelection selection) {
    const std::size_t procs = lane_off_[p.lane + 1] - lane_off_[p.lane];
    const std::size_t cap = slack_off_[p.lane + 1] - slack_off_[p.lane];
    std::size_t& head = lane_head_[p.lane];
    double* av = sorted_avail_.data() + slack_off_[p.lane] + head;
    const std::size_t s = p.size;
    std::size_t hole = 0;  // First index of the s entries being replaced.
    if (selection == ProcessorSelection::BestFit) {
      hole = sorted_rank(av, procs, p.start) - s;
    }
    // New resting place of the s finish times among the survivors:
    // everything in [pos, procs) is > p.finish, av[pos - 1] <= p.finish —
    // exactly tail + count_leq(av + tail, procs - tail, p.finish), found
    // by a branchless (cmov-friendly) upper-bound search.
    const std::size_t tail = hole + s;
    std::size_t pos = procs;
    if (std::size_t rem = procs - tail; rem > 0) {
      const double* lo = av + tail;
      while (rem > 1) {
        const std::size_t half = rem >> 1;
        lo += (lo[half - 1] <= p.finish) ? half : 0;
        rem -= half;
      }
      pos = static_cast<std::size_t>(lo - av) +
            static_cast<std::size_t>(*lo <= p.finish);
    }
    if (hole == 0 && procs - pos < pos - tail) {
      // Back side is shorter: keep the survivors below the insertion
      // point in place and slide the tail up, advancing the window over
      // the s freed slots at the front.
      if (head + procs + s > cap) {
        double* base = sorted_avail_.data() + slack_off_[p.lane];
        std::memmove(base, av, procs * sizeof(double));
        head = 0;
        av = base;
      }
      std::memmove(av + pos + s, av + pos, (procs - pos) * sizeof(double));
      for (std::size_t i = pos; i < pos + s; ++i) av[i] = p.finish;
      head += s;
    } else {
      if (pos > tail) {
        std::memmove(av + hole, av + tail, (pos - tail) * sizeof(double));
      }
      for (std::size_t i = pos - s; i < pos; ++i) av[i] = p.finish;
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

  void occupy_placed(TaskId v, const Placement& p,
                     ProcessorSelection selection, Schedule* out);

  std::vector<MappingLane> lanes_;
  std::size_t n_ = 0;
  const std::uint32_t* succ_off_ = nullptr;  ///< Instance CSR offsets.

  /// Slack multiplier for the sliding availability windows: each lane owns
  /// kAvailSlackFactor x P doubles so occupy_value can advance the window
  /// head many pops before a rebase memmove.
  static constexpr std::size_t kAvailSlackFactor = 4;

  std::vector<std::size_t> lane_off_;  ///< Lane k: [lane_off_[k], [k+1]).
  /// Lane k's slack region: sorted_avail_[slack_off_[k], slack_off_[k+1]).
  std::vector<std::size_t> slack_off_;
  /// Offset of lane k's live window inside its slack region; the window
  /// holds the lane's P free times in ascending order.
  std::vector<std::size_t> lane_head_;
  /// Per lane: the free times of its processors in ascending order (value
  /// path; also the placement path's query mirror), as sliding windows —
  /// see occupy_value.
  std::vector<double> sorted_avail_;
  std::vector<double> proc_avail_;  ///< Per processor (placement path).
  std::vector<int> proc_order_;     ///< Placement-path scratch.
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
