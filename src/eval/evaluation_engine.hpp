#pragma once
// EvaluationEngine — the parallel fitness-evaluation layer of EMTS.
//
// The paper's entire optimization cost sits in the mapping step: every
// fitness evaluation is one full list-scheduling pass, and EMTS-10 runs
// lambda = 100 of them per generation (Section III-A, Section V). The
// engine owns everything that hot path needs and keeps it alive for the
// whole optimization:
//
//   * one ListScheduler per evaluation slot (preallocated scratch),
//   * a persistent ThreadPool (created once per engine, not per
//     generation) with dynamic blocked work distribution, so
//     rejection-bailout imbalance rebalances across workers,
//   * an optional allocation-memoization cache (exact makespan per
//     allocation vector — mutants frequently collide with their parents
//     and each other under small mutation counts),
//   * the rejection strategy (Section VI future work): each offspring's
//     pass is bounded by the batch's running mu-th best exact fitness
//     (see "Rejection" below),
//   * an EvalStats telemetry snapshot (evaluations, cache hits/misses,
//     rejections, wall-seconds in evaluation) surfaced through EmtsResult
//     and the campaign CSV writers.
//
// Rejection: with use_rejection on, evaluate_batch(pool, begin) treats
// pool[0..begin) as the survivors of the last selection and assumes the
// caller keeps the best `begin` entries of the pool (BatchEvaluator's
// contract under plus selection). Offspring are evaluated in fixed waves
// of kRejectionWave children, in pool order. Every child of a wave is
// bounded by the begin-th best exact fitness among the parents and the
// children of earlier waves (and by a manually published incumbent, if
// lower). A bounded pass that sees start + bottom level > bound aborts
// with +infinity: the child's exact makespan then exceeds that of at
// least `begin` pool entries, so it can never be selected. Survivors, and
// therefore the whole evolution trajectory, are the same as without
// rejection.
//
// Determinism: the fitness assigned to an individual is a pure function of
// its allocation and the bound of its wave, and a wave's bound depends only
// on earlier waves — never on thread count or on the order inside a wave.
// Cache hits return exactly the value a fresh ListScheduler pass would
// compute, and bounded (rejected, +inf) results are never cached. With the
// memo cache off, rejection counts are therefore identical across thread
// counts and reruns. With it on, the cold-cache sampler is per slot, so a
// duplicate may be rejected on one thread count and served exactly from the
// cache on another: the counters differ, the survivors do not.

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ea/evolution.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/schedule.hpp"
#include "support/thread_pool.hpp"

namespace ptgsched {

/// Which mapping pass the engine's batch path runs. Only Full exists:
/// every evaluation is one complete list-scheduling pass. The other two
/// names survive only because perfbench/ still spells them; the engine
/// constructor rejects them with std::invalid_argument.
enum class KernelMode {
  Full,
  Incremental,
  Batched,
};

struct EvalEngineConfig {
  /// Evaluation lanes; 0 = evaluate inline on the calling thread. A value
  /// of T creates T slots served by T - 1 workers plus the caller.
  std::size_t threads = 0;
  /// Enable the rejection strategy: batch evaluations abort with +infinity
  /// as soon as the partial schedule provably exceeds the batch's running
  /// bound (ListScheduler::makespan_bounded; see "Rejection" above). Off
  /// here because a bare engine cannot know the caller's selection; EMTS
  /// turns it on per run (EmtsConfig::use_rejection).
  bool use_rejection = false;
  /// Memoize exact makespans per allocation vector. Hits return the exact
  /// cached value, so results are bit-identical with the cache off.
  bool memoize = false;
  /// Maximum number of cached allocations (inserts stop when full; an
  /// EMTS-10 run performs ~1e3 evaluations, far below the default).
  std::size_t memo_capacity = 1 << 16;
  /// Batch evaluation kernel: unset or KernelMode::Full (see KernelMode).
  std::optional<KernelMode> kernel;
  /// Cooperative cancellation (not owned; must outlive the engine). Once
  /// the token trips, batch evaluations short-circuit to +infinity (never
  /// cached) so an in-flight generation drains the thread pool in
  /// microseconds instead of finishing hundreds of list-scheduler passes.
  /// evaluate_one() stays exact regardless (seed evaluation must be).
  const CancellationToken* cancel = nullptr;
};

/// Telemetry snapshot of an engine's lifetime (since construction or the
/// last reset_stats()).
struct EvalStats {
  std::size_t evaluations = 0;   ///< Fitness values requested.
  std::size_t scheduled = 0;     ///< List-scheduler passes actually run.
  std::size_t cache_hits = 0;    ///< Served from the memo cache.
  std::size_t cache_misses = 0;  ///< Looked up but absent (memoize only).
  /// Memo probes skipped by the cold-cache sampler (memoize only): when a
  /// slot's windowed hit rate drops below ~6%, only one evaluation in
  /// kColdProbePeriod pays the hash + shard lock, and the sampled probes
  /// keep the estimate fresh so a warming cache re-enables full probing.
  /// evaluations == cache_hits + cache_misses + cache_skipped under
  /// memoize.
  std::size_t cache_skipped = 0;
  std::size_t rejections = 0;    ///< Bounded passes that bailed out early.
  std::size_t trace_builds = 0;     ///< Always 0 (Full kernel only).
  std::size_t delta_scheduled = 0;  ///< Always 0 (Full kernel only).
  std::size_t batches = 0;       ///< evaluate_batch() calls.
  double eval_seconds = 0.0;     ///< Wall seconds inside evaluate_batch().

  /// Evaluations per wall-second inside the engine (0 if no time elapsed).
  [[nodiscard]] double throughput() const noexcept {
    return eval_seconds > 0.0
               ? static_cast<double>(evaluations) / eval_seconds
               : 0.0;
  }
};

/// Reusable parallel evaluator bound to one (graph, model, cluster,
/// mapping-policy) quadruple. One engine serves one optimization run or
/// many sequential ones; evaluate_batch() itself is not reentrant (the ES
/// calls it from a single driver thread).
class EvaluationEngine final : public BatchEvaluator {
 public:
  /// Primary constructor: every evaluation slot shares `instance` (which
  /// is warmed once, so no worker ever stalls on the lazy builds).
  explicit EvaluationEngine(std::shared_ptr<const ProblemInstance> instance,
                            ListSchedulerOptions mapping = {},
                            EvalEngineConfig config = {});

  /// Legacy adapter: borrows the references (they must outlive the
  /// engine).
  EvaluationEngine(const Ptg& g, const ExecutionTimeModel& model,
                   const Cluster& cluster, ListSchedulerOptions mapping = {},
                   EvalEngineConfig config = {});

  // BatchEvaluator interface -------------------------------------------
  void evaluate_batch(std::vector<Individual>& pool,
                      std::size_t begin) override;
  /// Publishes the worst survivor as the incumbent (no-op unless
  /// config.use_rejection). Under the batch contract the running bound
  /// starts at this value anyway; the incumbent matters for callers that
  /// publish a bound by hand.
  void on_selection(std::size_t generation, double best,
                    double worst) override;

  // Direct evaluation --------------------------------------------------
  /// Exact makespan of one allocation on slot 0. Ignores the incumbent
  /// bound (seed evaluation must be exact) but uses and fills the memo
  /// cache; counted in stats().
  [[nodiscard]] double evaluate_one(const Allocation& alloc);

  /// Full schedule for an allocation (slot 0; not counted in stats).
  [[nodiscard]] Schedule build_schedule(const Allocation& alloc);

  /// The engine's hot path as a plain FitnessFn (exact per-slot
  /// evaluation through the memo cache, no incumbent bound): glue for
  /// LocalSearch and other FitnessFn-based drivers. The engine must
  /// outlive the returned function.
  [[nodiscard]] FitnessFn fitness_fn();

  // Rejection bound ----------------------------------------------------
  /// Manually publish an incumbent bound (evaluate_batch must not be
  /// running). Batch evaluations under rejection are bounded by the lower
  /// of the incumbent and the running bound.
  void set_incumbent(double bound) noexcept {
    incumbent_.store(bound, std::memory_order_relaxed);
  }
  [[nodiscard]] double incumbent() const noexcept {
    return incumbent_.load(std::memory_order_relaxed);
  }

  // Cancellation -------------------------------------------------------
  /// Rebind the cooperative cancellation token consulted by the batch
  /// paths. The engine must be quiescent (no evaluate_batch in flight);
  /// the serve daemon's engine pool rebinds the per-request token here
  /// each time a pooled engine is checked out for a new request.
  void set_cancel(const CancellationToken* cancel) noexcept {
    config_.cancel = cancel;
  }

  /// Switch the rejection strategy on or off for the next runs (same
  /// quiescence rule as set_cancel). Emts::schedule applies its config's
  /// setting here, so a pooled engine follows each run's policy.
  void set_rejection(bool on) noexcept { config_.use_rejection = on; }

  // Telemetry ----------------------------------------------------------
  [[nodiscard]] EvalStats stats() const;
  void reset_stats();
  void clear_cache();

  [[nodiscard]] const EvalEngineConfig& config() const noexcept {
    return config_;
  }
  /// The batch kernel: always KernelMode::Full.
  [[nodiscard]] KernelMode kernel_mode() const noexcept {
    return KernelMode::Full;
  }
  /// The shared problem core all slots evaluate against.
  [[nodiscard]] const std::shared_ptr<const ProblemInstance>& instance()
      const noexcept {
    return instance_;
  }
  [[nodiscard]] std::size_t num_slots() const noexcept {
    return slots_.size();
  }
  /// The persistent pool (exposed so tests can assert worker stability).
  [[nodiscard]] const ThreadPool& pool() const noexcept { return pool_; }

 private:
  /// Per-slot telemetry. Atomic (relaxed) because stats()/reset_stats()
  /// may run on the driver thread while workers are still bumping their
  /// slots mid-batch — the snapshot is then approximate, but never a data
  /// race. Each slot is written by one worker at a time, so relaxed
  /// increments lose nothing in the quiescent case.
  struct alignas(64) SlotCounters {
    std::atomic<std::size_t> evaluations{0};
    std::atomic<std::size_t> scheduled{0};
    std::atomic<std::size_t> cache_hits{0};
    std::atomic<std::size_t> cache_misses{0};
    std::atomic<std::size_t> cache_skipped{0};
  };

  /// Cold-cache probe sampler, one per slot. Plain (non-atomic) state:
  /// each slot is driven by exactly one worker at a time and the pool's
  /// batch join orders accesses across batches. Tuned so the ~4% memo
  /// overhead measured on a cold cache (BENCH_6 engine_memo lane) drops
  /// to noise: after kProbeWindow probed lookups with a hit rate below
  /// kColdHitNumerator / kProbeWindow, only every kColdProbePeriod-th
  /// evaluation probes (and may insert); a re-warming cache lifts the
  /// sampled hit rate back over the threshold and full probing resumes.
  struct alignas(64) MemoProbeState {
    std::uint32_t window_lookups = 0;
    std::uint32_t window_hits = 0;
    std::uint32_t skip_phase = 0;
    bool cold = false;
  };
  static constexpr std::uint32_t kProbeWindow = 128;
  static constexpr std::uint32_t kColdHitNumerator = 8;
  static constexpr std::uint32_t kColdProbePeriod = 8;

  /// Outcome of one memoization probe. `probed` is false when the cold
  /// sampler skipped the lookup — the caller must then not insert either
  /// (it has no key).
  struct MemoProbe {
    bool probed = false;
    bool hit = false;
    std::uint64_t key = 0;
    double value = 0.0;
  };

  struct CacheShard {
    std::mutex mu;
    std::unordered_map<std::uint64_t, std::pair<Allocation, double>> map;
  };

  /// Fitness of one allocation on `slot` under `bound` (the memo- and
  /// rejection-aware hot path). With honor_cancel, a tripped cancellation
  /// token short-circuits to +infinity before the scheduling pass.
  double fitness_for(const Allocation& alloc, std::size_t slot, double bound,
                     bool honor_cancel);

  /// Children per rejection wave: each wave is bounded by the parents and
  /// the earlier waves only, so the bound never depends on scheduling.
  static constexpr std::size_t kRejectionWave = 8;

  /// Evaluate the children pool[lo..hi) under `bound`, across the slots.
  void evaluate_children(std::vector<Individual>& pool, std::size_t lo,
                         std::size_t hi, double bound);

  /// Offer an exact fitness to the running bound: best_ keeps the
  /// best_capacity_ lowest finite values as a max-heap. Rejected and
  /// cancelled (+inf) results are ignored.
  void offer_to_bound(double fitness);
  /// The best_capacity_-th best fitness offered so far (+inf until that
  /// many finite values arrived).
  [[nodiscard]] double running_bound() const noexcept {
    return best_capacity_ > 0 && best_.size() == best_capacity_
               ? best_.front()
               : std::numeric_limits<double>::infinity();
  }

  /// Memoization lookup with the cold-cache sampler (call only under
  /// config.memoize). Maintains the slot's windowed hit-rate estimate and
  /// the hit/miss/skipped counters.
  MemoProbe memo_probe(std::size_t slot, const Allocation& alloc);

  [[nodiscard]] bool cache_lookup(std::uint64_t key, const Allocation& alloc,
                                  double* out);
  void cache_insert(std::uint64_t key, const Allocation& alloc, double value);

  EvalEngineConfig config_;
  std::shared_ptr<const ProblemInstance> instance_;
  std::vector<std::unique_ptr<ListScheduler>> slots_;
  ThreadPool pool_;
  std::atomic<double> incumbent_;

  /// Running-bound scratch of the current batch (see offer_to_bound).
  std::vector<double> best_;
  std::size_t best_capacity_ = 0;

  static constexpr std::size_t kCacheShards = 16;
  std::vector<CacheShard> cache_shards_;
  std::atomic<std::size_t> cache_size_{0};

  /// Heap arrays, not vectors: atomics are immovable, and the probe
  /// states ride the same indexing.
  std::unique_ptr<SlotCounters[]> slot_counters_;
  std::unique_ptr<MemoProbeState[]> memo_state_;
  std::atomic<std::size_t> batches_{0};
  std::atomic<double> eval_seconds_{0.0};
};

}  // namespace ptgsched
