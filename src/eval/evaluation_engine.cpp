#include "eval/evaluation_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

#include "support/rng.hpp"
#include "support/timer.hpp"

namespace ptgsched {

namespace {

/// splitmix64-combined hash of an allocation vector. Collisions are
/// harmless (the cache verifies the stored allocation before a hit) but
/// rare, so they only cost a miss.
std::uint64_t allocation_hash(const Allocation& alloc) noexcept {
  std::uint64_t h = splitmix64(0x9e3779b97f4a7c15ull + alloc.size());
  for (const int s : alloc) {
    h = splitmix64(h ^ static_cast<std::uint64_t>(static_cast<unsigned>(s)));
  }
  return h;
}

/// Resolve the batch kernel: explicit config wins, then the
/// PTGSCHED_KERNEL environment variable, then Full.
KernelMode resolve_kernel_mode(const std::optional<KernelMode>& cfg) {
  if (cfg.has_value()) return *cfg;
  const char* env = std::getenv("PTGSCHED_KERNEL");
  if (env == nullptr || *env == '\0') return KernelMode::Full;
  const std::string_view value(env);
  if (value == "full") return KernelMode::Full;
  if (value == "incremental") return KernelMode::Incremental;
  if (value == "batched") return KernelMode::Batched;
  throw std::invalid_argument(
      "PTGSCHED_KERNEL must be 'full', 'incremental' or 'batched' (got '" +
      std::string(value) + "')");
}

}  // namespace

EvaluationEngine::EvaluationEngine(
    std::shared_ptr<const ProblemInstance> instance,
    ListSchedulerOptions mapping, EvalEngineConfig config)
    : config_(config),
      kernel_mode_(resolve_kernel_mode(config.kernel)),
      instance_(std::move(instance)),
      pool_(config.threads == 0 ? 0 : config.threads - 1),
      incumbent_(std::numeric_limits<double>::infinity()),
      cache_shards_(kCacheShards) {
  if (instance_ == nullptr) {
    throw std::invalid_argument("EvaluationEngine: null problem instance");
  }
  // Build every lazy block now, before any worker touches the instance.
  instance_->warm();
  const std::size_t slots = std::max<std::size_t>(1, config_.threads);
  slots_.reserve(slots);
  for (std::size_t i = 0; i < slots; ++i) {
    slots_.push_back(std::make_unique<ListScheduler>(instance_, mapping));
  }
  slot_counters_ = std::make_unique<SlotCounters[]>(slots);
  memo_state_ = std::make_unique<MemoProbeState[]>(slots);
}

EvaluationEngine::EvaluationEngine(const Ptg& g,
                                   const ExecutionTimeModel& model,
                                   const Cluster& cluster,
                                   ListSchedulerOptions mapping,
                                   EvalEngineConfig config)
    : EvaluationEngine(ProblemInstance::borrow(g, model, cluster), mapping,
                       config) {}

bool EvaluationEngine::cache_lookup(std::uint64_t key,
                                    const Allocation& alloc, double* out) {
  CacheShard& shard = cache_shards_[key % kCacheShards];
  const std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.map.find(key);
  if (it == shard.map.end() || it->second.first != alloc) return false;
  *out = it->second.second;
  return true;
}

void EvaluationEngine::cache_insert(std::uint64_t key, const Allocation& alloc,
                                    double value) {
  if (cache_size_.load(std::memory_order_relaxed) >= config_.memo_capacity) {
    return;
  }
  CacheShard& shard = cache_shards_[key % kCacheShards];
  const std::lock_guard<std::mutex> lock(shard.mu);
  const auto [it, inserted] = shard.map.try_emplace(key, alloc, value);
  if (inserted) {
    cache_size_.fetch_add(1, std::memory_order_relaxed);
  } else if (it->second.first != alloc) {
    // Hash collision between distinct allocations: keep the newer entry.
    it->second = {alloc, value};
  }
}

EvaluationEngine::MemoProbe EvaluationEngine::memo_probe(
    std::size_t slot, const Allocation& alloc) {
  SlotCounters& counters = slot_counters_[slot];
  MemoProbeState& ms = memo_state_[slot];
  MemoProbe probe;
  if (ms.cold && ++ms.skip_phase % kColdProbePeriod != 0) {
    // Cold cache: the probe is almost certainly a miss, so skip the hash
    // and the shard lock. The periodic sampled probes below keep the
    // hit-rate estimate live, so a warming cache exits cold mode.
    counters.cache_skipped.fetch_add(1, std::memory_order_relaxed);
    return probe;
  }
  probe.probed = true;
  probe.key = allocation_hash(alloc);
  probe.hit = cache_lookup(probe.key, alloc, &probe.value);
  ++ms.window_lookups;
  if (probe.hit) ++ms.window_hits;
  if (ms.window_lookups >= kProbeWindow) {
    ms.cold = ms.window_hits < kColdHitNumerator;
    ms.window_lookups = 0;
    ms.window_hits = 0;
  }
  if (probe.hit) {
    counters.cache_hits.fetch_add(1, std::memory_order_relaxed);
  } else {
    counters.cache_misses.fetch_add(1, std::memory_order_relaxed);
  }
  return probe;
}

double EvaluationEngine::fitness_for(const Allocation& alloc,
                                     std::size_t slot, double bound,
                                     bool honor_cancel,
                                     const EvalTrace* trace,
                                     std::span<const TaskId> touched) {
  SlotCounters& counters = slot_counters_[slot];
  counters.evaluations.fetch_add(1, std::memory_order_relaxed);

  // Drain fast on cancellation: the ES discards this batch anyway, so
  // skip the list-scheduler pass and return a non-cacheable +infinity.
  if (honor_cancel && config_.cancel != nullptr &&
      config_.cancel->cancelled()) {
    return std::numeric_limits<double>::infinity();
  }

  MemoProbe probe;
  if (config_.memoize) {
    probe = memo_probe(slot, alloc);
    if (probe.hit) return probe.value;
  }

  counters.scheduled.fetch_add(1, std::memory_order_relaxed);
  double makespan;
  if (trace != nullptr) {
    counters.delta_scheduled.fetch_add(1, std::memory_order_relaxed);
    makespan = slots_[slot]->makespan_delta(alloc, touched, *trace, bound);
  } else {
    makespan = slots_[slot]->makespan_bounded(alloc, bound);
  }
  // Only exact makespans may be cached: a rejected (+inf) result is an
  // artifact of the current bound, not a property of the allocation. A
  // probe the cold sampler skipped has no key, so it cannot insert.
  if (config_.memoize && probe.probed && std::isfinite(makespan)) {
    cache_insert(probe.key, alloc, makespan);
  }
  return makespan;
}

double EvaluationEngine::sibling_fitness(const Allocation& alloc,
                                         std::span<const TaskId> touched,
                                         const EvalTrace& trace,
                                         std::size_t slot, double bound) {
  SlotCounters& counters = slot_counters_[slot];
  counters.evaluations.fetch_add(1, std::memory_order_relaxed);
  if (config_.cancel != nullptr && config_.cancel->cancelled()) {
    return std::numeric_limits<double>::infinity();
  }
  MemoProbe probe;
  if (config_.memoize) {
    probe = memo_probe(slot, alloc);
    if (probe.hit) return probe.value;
  }
  counters.scheduled.fetch_add(1, std::memory_order_relaxed);
  counters.delta_scheduled.fetch_add(1, std::memory_order_relaxed);
  const double makespan =
      slots_[slot]->makespan_sibling(alloc, touched, trace, bound);
  if (config_.memoize && probe.probed && std::isfinite(makespan)) {
    cache_insert(probe.key, alloc, makespan);
  }
  return makespan;
}

void EvaluationEngine::build_parent_traces(
    const std::vector<Individual>& pool, std::size_t begin) {
  trace_parents_.clear();
  if (traces_.size() < begin) {
    traces_.resize(begin);
    trace_epoch_.resize(begin, 0);
  }
  ++batch_epoch_;
  for (std::size_t i = begin; i < pool.size(); ++i) {
    const std::size_t p = pool[i].parent;
    if (p >= begin) continue;  // kNoParent or not actually in this pool.
    if (trace_epoch_[p] != batch_epoch_) {
      trace_epoch_[p] = batch_epoch_;
      trace_parents_.push_back(p);
    }
  }
  if (trace_parents_.empty()) return;

  const auto build = [&](std::size_t j, std::size_t slot) {
    const std::size_t p = trace_parents_[j];
    EvalTrace& trace = traces_[p];
    // A surviving parent keeps its trace across generations: traces are a
    // pure function of the genome, so an already-valid trace whose
    // recorded allocation matches this slot's genes is this batch's trace
    // verbatim — the compare is 2 orders of magnitude cheaper than the
    // traced pass it skips.
    if (trace.valid && trace.alloc.size() == pool[p].genes.size() &&
        std::equal(trace.alloc.begin(), trace.alloc.end(),
                   pool[p].genes.begin())) {
      return;
    }
    trace.valid = false;
    // On cancellation the batch is discarded anyway; leaving the trace
    // invalid makes every child fall back to the (also short-circuited)
    // full path.
    if (config_.cancel != nullptr && config_.cancel->cancelled()) return;
    SlotCounters& counters = slot_counters_[slot];
    counters.trace_builds.fetch_add(1, std::memory_order_relaxed);
    (void)slots_[slot]->makespan_traced(pool[p].genes, trace);
  };
  if (pool_.num_threads() == 0 || trace_parents_.size() == 1) {
    for (std::size_t j = 0; j < trace_parents_.size(); ++j) build(j, 0);
  } else {
    pool_.parallel_for_blocked(
        trace_parents_.size(), 1,
        [&](std::size_t lo, std::size_t hi, std::size_t slot) {
          for (std::size_t j = lo; j < hi; ++j) build(j, slot);
        });
  }
}

void EvaluationEngine::offer_to_bound(double fitness) {
  if (best_capacity_ == 0 || !std::isfinite(fitness)) return;
  if (best_.size() < best_capacity_) {
    best_.push_back(fitness);
    std::push_heap(best_.begin(), best_.end());
  } else if (fitness < best_.front()) {
    std::pop_heap(best_.begin(), best_.end());
    best_.back() = fitness;
    std::push_heap(best_.begin(), best_.end());
  }
}

void EvaluationEngine::evaluate_batch(std::vector<Individual>& pool,
                                      std::size_t begin) {
  const std::size_t n = pool.size() - begin;
  if (n == 0) return;
  WallTimer timer;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const bool bounded = config_.use_rejection;
  const double incumbent =
      bounded ? incumbent_.load(std::memory_order_relaxed) : kInf;
  // The running bound starts from the parents: pool[0..begin) are the
  // survivors the caller keeps competing against.
  best_.clear();
  best_capacity_ = bounded ? begin : 0;
  for (std::size_t i = 0; i < best_capacity_; ++i) {
    offer_to_bound(pool[i].fitness);
  }

  // Incremental/Batched kernels, phase 1: one trace per unique in-pool
  // parent.
  if (kernel_mode_ != KernelMode::Full) {
    build_parent_traces(pool, begin);
  }

  // Phase 2, wave by wave. Without rejection nothing flows between
  // children, so one wave covers the batch.
  const std::size_t wave = bounded ? kRejectionWave : n;
  for (std::size_t lo = begin; lo < pool.size(); lo += wave) {
    const std::size_t hi = std::min(pool.size(), lo + wave);
    const double bound = std::min(incumbent, running_bound());
    if (kernel_mode_ == KernelMode::Batched) {
      evaluate_sibling_groups(pool, begin, lo, hi, bound);
    } else {
      evaluate_children(pool, begin, lo, hi, bound);
    }
    for (std::size_t i = lo; i < hi; ++i) offer_to_bound(pool[i].fitness);
  }
  batches_.fetch_add(1, std::memory_order_relaxed);
  eval_seconds_.fetch_add(timer.seconds(), std::memory_order_relaxed);
}

void EvaluationEngine::evaluate_children(std::vector<Individual>& pool,
                                         std::size_t begin, std::size_t lo,
                                         std::size_t hi, double bound) {
  const auto evaluate_child = [&](std::size_t i, std::size_t slot) {
    Individual& child = pool[i];
    child.fitness = fitness_for(child.genes, slot, bound, true,
                                trace_of(child, begin), child.touched);
  };
  if (pool_.num_threads() == 0) {
    for (std::size_t i = lo; i < hi; ++i) evaluate_child(i, 0);
    return;
  }
  // Small blocks keep all workers busy even when rejection bails some
  // evaluations out early; the slot pins each participant to its own
  // ListScheduler scratch.
  const std::size_t n = hi - lo;
  const std::size_t grain =
      std::max<std::size_t>(1, n / (4 * pool_.num_slots()));
  pool_.parallel_for_blocked(
      n, grain, [&](std::size_t b, std::size_t e, std::size_t slot) {
        for (std::size_t i = b; i < e; ++i) evaluate_child(lo + i, slot);
      });
}

void EvaluationEngine::evaluate_sibling_groups(std::vector<Individual>& pool,
                                               std::size_t begin,
                                               std::size_t lo,
                                               std::size_t hi,
                                               double bound) {
  const std::size_t n = hi - lo;
  // Order children by traced parent; children without a usable trace sort
  // to the back (kLooseGroup). The sort is stable, so in-group and loose
  // evaluation order is pool order — not that order matters for results
  // (every fitness is a pure function of the allocation and bound), but
  // determinism here keeps stats and scheduling reproducible per thread
  // count.
  // The key space is tiny (parents live below `begin`), so a stable
  // counting sort replaces the comparator sort: keys are computed once per
  // child instead of once per comparison, and placement is a single
  // counting pass. Loose children take the one-past-the-parents bucket.
  group_keys_.resize(n);
  group_bins_.assign(begin + 2, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Individual& child = pool[lo + i];
    const std::size_t key =
        trace_of(child, begin) != nullptr ? child.parent : kLooseGroup;
    group_keys_[i] = key;
    ++group_bins_[(key == kLooseGroup ? begin : key) + 1];
  }
  for (std::size_t b = 1; b < group_bins_.size(); ++b) {
    group_bins_[b] += group_bins_[b - 1];
  }
  group_order_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t key = group_keys_[i];
    group_order_[group_bins_[key == kLooseGroup ? begin : key]++] =
        static_cast<std::uint32_t>(i);
  }
  const auto parent_key = [&](std::uint32_t i) { return group_keys_[i]; };

  // Carve contiguous sibling groups, chunked by config.sibling_batch so
  // the bench sweep can bound the per-session amortization. Loose
  // children become single-child groups on the plain path.
  sibling_groups_.clear();
  std::size_t i = 0;
  while (i < n) {
    const std::size_t key = parent_key(group_order_[i]);
    std::size_t j = i + 1;
    if (key != kLooseGroup) {
      while (j < n && parent_key(group_order_[j]) == key) ++j;
    }
    const std::size_t chunk =
        (key == kLooseGroup || config_.sibling_batch == 0)
            ? j - i
            : config_.sibling_batch;
    for (std::size_t g = i; g < j; g += chunk) {
      sibling_groups_.push_back({key, static_cast<std::uint32_t>(g),
                                 static_cast<std::uint32_t>(
                                     std::min(j, g + chunk))});
    }
    i = j;
  }

  const auto run_group = [&](std::size_t g, std::size_t slot) {
    const SiblingGroup& grp = sibling_groups_[g];
    if (grp.parent == kLooseGroup) {
      Individual& child = pool[lo + group_order_[grp.lo]];
      child.fitness = fitness_for(child.genes, slot, bound, true, nullptr,
                                  child.touched);
      return;
    }
    const EvalTrace& trace = traces_[grp.parent];
    if (slots_[slot]->begin_sibling_batch(trace)) {
      slot_counters_[slot].sibling_batches.fetch_add(
          1, std::memory_order_relaxed);
    }
    for (std::uint32_t k = grp.lo; k < grp.hi; ++k) {
      Individual& child = pool[lo + group_order_[k]];
      child.fitness =
          sibling_fitness(child.genes, child.touched, trace, slot, bound);
    }
  };
  if (pool_.num_threads() == 0) {
    for (std::size_t g = 0; g < sibling_groups_.size(); ++g) {
      run_group(g, 0);
    }
  } else {
    // Grain 1: groups are coarse already (one per parent per chunk), and
    // rejection imbalance rebalances across workers.
    pool_.parallel_for_blocked(
        sibling_groups_.size(), 1,
        [&](std::size_t b, std::size_t e, std::size_t slot) {
          for (std::size_t g = b; g < e; ++g) run_group(g, slot);
        });
  }
}

void EvaluationEngine::on_selection(std::size_t /*generation*/,
                                    double /*best*/, double worst) {
  if (config_.use_rejection) {
    incumbent_.store(worst, std::memory_order_relaxed);
  }
}

double EvaluationEngine::evaluate_one(const Allocation& alloc) {
  // Seed evaluation must be exact even while a cancel is pending (the
  // best-so-far result is at worst a seed, never a torn +inf).
  return fitness_for(alloc, 0, std::numeric_limits<double>::infinity(),
                     false);
}

Schedule EvaluationEngine::build_schedule(const Allocation& alloc) {
  return slots_.front()->build_schedule(alloc);
}

FitnessFn EvaluationEngine::fitness_fn() {
  return [this](const Allocation& alloc, std::size_t slot) {
    return fitness_for(alloc, slot % slots_.size(),
                       std::numeric_limits<double>::infinity(), false);
  };
}

EvalStats EvaluationEngine::stats() const {
  EvalStats s;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const SlotCounters& c = slot_counters_[i];
    s.evaluations += c.evaluations.load(std::memory_order_relaxed);
    s.scheduled += c.scheduled.load(std::memory_order_relaxed);
    s.cache_hits += c.cache_hits.load(std::memory_order_relaxed);
    s.cache_misses += c.cache_misses.load(std::memory_order_relaxed);
    s.cache_skipped += c.cache_skipped.load(std::memory_order_relaxed);
    s.trace_builds += c.trace_builds.load(std::memory_order_relaxed);
    s.delta_scheduled += c.delta_scheduled.load(std::memory_order_relaxed);
    s.sibling_batches += c.sibling_batches.load(std::memory_order_relaxed);
  }
  for (const auto& sched : slots_) s.rejections += sched->rejected_count();
  s.batches = batches_.load(std::memory_order_relaxed);
  s.eval_seconds = eval_seconds_.load(std::memory_order_relaxed);
  return s;
}

void EvaluationEngine::reset_stats() {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    SlotCounters& c = slot_counters_[i];
    c.evaluations.store(0, std::memory_order_relaxed);
    c.scheduled.store(0, std::memory_order_relaxed);
    c.cache_hits.store(0, std::memory_order_relaxed);
    c.cache_misses.store(0, std::memory_order_relaxed);
    c.cache_skipped.store(0, std::memory_order_relaxed);
    c.trace_builds.store(0, std::memory_order_relaxed);
    c.delta_scheduled.store(0, std::memory_order_relaxed);
    c.sibling_batches.store(0, std::memory_order_relaxed);
    // memo_state_ is deliberately NOT reset: the cold-probe sampler is
    // adaptive state mirroring the memo cache (which reset_stats also
    // keeps), not telemetry — and its fields are non-atomic, owned by the
    // slot's worker, so writing them here would race with a concurrent
    // batch (reset_stats is documented as safe to call mid-flight).
  }
  batches_.store(0, std::memory_order_relaxed);
  eval_seconds_.store(0.0, std::memory_order_relaxed);
  // Zero the schedulers' own counters too, so the next stats() snapshot is
  // an exact delta rather than a lifetime total minus an offset.
  for (const auto& sched : slots_) sched->reset_stats();
}

void EvaluationEngine::clear_cache() {
  for (CacheShard& shard : cache_shards_) {
    const std::lock_guard<std::mutex> lock(shard.mu);
    shard.map.clear();
  }
  cache_size_.store(0, std::memory_order_relaxed);
}

}  // namespace ptgsched
