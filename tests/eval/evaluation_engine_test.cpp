// Tests for the EvaluationEngine: memo-cache correctness (including the
// rejection interplay — a bounded/infinite result must never be cached),
// incumbent plumbing, telemetry, and parallel/serial agreement.

#include "eval/evaluation_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "daggen/corpus.hpp"
#include "model/execution_time.hpp"
#include "platform/cluster.hpp"
#include "support/rng.hpp"

namespace ptgsched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Allocation random_allocation(const Ptg& g, const Cluster& c, Rng& rng) {
  Allocation alloc(g.num_tasks());
  for (auto& s : alloc) {
    s = static_cast<int>(rng.uniform_int(1, c.num_processors()));
  }
  return alloc;
}

std::vector<Individual> random_batch(const Ptg& g, const Cluster& c,
                                     std::size_t n, Rng& rng) {
  std::vector<Individual> batch(n);
  for (auto& ind : batch) ind.genes = random_allocation(g, c, rng);
  return batch;
}

TEST(EvaluationEngine, MemoizedMakespanEqualsFreshScheduler) {
  const auto graphs = irregular_corpus(40, 3, 101);
  const Cluster c = chti();
  const SyntheticModel model;
  for (const auto& g : graphs) {
    EvalEngineConfig cfg;
    cfg.memoize = true;
    EvaluationEngine engine(g, model, c, {}, cfg);
    ListScheduler fresh(g, c, model);
    Rng rng(g.num_tasks());
    auto batch = random_batch(g, c, 40, rng);
    engine.evaluate_batch(batch, 0);
    for (const auto& ind : batch) {
      EXPECT_DOUBLE_EQ(ind.fitness, fresh.makespan(ind.genes));
    }
    // Second pass: every value must come back unchanged, now from cache.
    auto again = batch;
    for (auto& ind : again) ind.fitness = -1.0;
    engine.evaluate_batch(again, 0);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_DOUBLE_EQ(again[i].fitness, batch[i].fitness);
    }
    EXPECT_GE(engine.stats().cache_hits, batch.size());
  }
}

TEST(EvaluationEngine, RejectedResultsAreNeverCached) {
  Rng seed_rng(7);
  const Ptg g = irregular_corpus(30, 1, 55).front();
  const Cluster c = chti();
  const SyntheticModel model;
  EvalEngineConfig cfg;
  cfg.memoize = true;
  cfg.use_rejection = true;
  EvaluationEngine engine(g, model, c, {}, cfg);

  Rng rng(3);
  auto batch = random_batch(g, c, 20, rng);

  // A bound of 0 rejects every evaluation at the first scheduled task.
  engine.set_incumbent(0.0);
  engine.evaluate_batch(batch, 0);
  for (const auto& ind : batch) EXPECT_TRUE(std::isinf(ind.fitness));
  EXPECT_EQ(engine.stats().rejections, batch.size());
  EXPECT_EQ(engine.stats().cache_hits, 0u);

  // Relaxing the bound must yield the exact makespan for the very same
  // allocations: had the +inf results been cached, these would be inf too.
  engine.set_incumbent(kInf);
  engine.evaluate_batch(batch, 0);
  ListScheduler fresh(g, c, model);
  for (const auto& ind : batch) {
    EXPECT_TRUE(std::isfinite(ind.fitness));
    EXPECT_DOUBLE_EQ(ind.fitness, fresh.makespan(ind.genes));
  }
  // No new rejections, and the second pass found no poisoned entries.
  EXPECT_EQ(engine.stats().rejections, batch.size());
}

TEST(EvaluationEngine, CacheHitBeatsTightenedBound) {
  // Once an exact makespan is cached, a later duplicate is served from the
  // cache even if the bound has tightened below it — the exact value is
  // strictly more informative than +inf and cannot change plus-selection.
  const Ptg g = irregular_corpus(30, 1, 56).front();
  const Cluster c = chti();
  const SyntheticModel model;
  EvalEngineConfig cfg;
  cfg.memoize = true;
  cfg.use_rejection = true;
  EvaluationEngine engine(g, model, c, {}, cfg);

  Rng rng(4);
  const Allocation alloc = random_allocation(g, c, rng);
  const double exact = engine.evaluate_one(alloc);
  ASSERT_TRUE(std::isfinite(exact));

  engine.set_incumbent(exact / 2.0);
  std::vector<Individual> batch(1);
  batch[0].genes = alloc;
  engine.evaluate_batch(batch, 0);
  EXPECT_DOUBLE_EQ(batch[0].fitness, exact);
  EXPECT_EQ(engine.stats().rejections, 0u);
}

TEST(EvaluationEngine, OnSelectionPublishesWorstSurvivorAsBound) {
  const Ptg g = irregular_corpus(25, 1, 57).front();
  const Cluster c = chti();
  const SyntheticModel model;
  EvalEngineConfig cfg;
  cfg.use_rejection = true;
  EvaluationEngine engine(g, model, c, {}, cfg);
  EXPECT_TRUE(std::isinf(engine.incumbent()));
  engine.on_selection(0, 10.0, 42.5);
  EXPECT_DOUBLE_EQ(engine.incumbent(), 42.5);

  // Without rejection the bound stays infinite (evaluations stay exact).
  EvalEngineConfig plain;
  EvaluationEngine engine2(g, model, c, {}, plain);
  engine2.on_selection(0, 10.0, 42.5);
  EXPECT_TRUE(std::isinf(engine2.incumbent()));
}

TEST(EvaluationEngine, EvaluateOneIgnoresIncumbent) {
  const Ptg g = irregular_corpus(25, 1, 58).front();
  const Cluster c = chti();
  const SyntheticModel model;
  EvalEngineConfig cfg;
  cfg.use_rejection = true;
  EvaluationEngine engine(g, model, c, {}, cfg);
  engine.set_incumbent(0.0);
  Rng rng(5);
  const Allocation alloc = random_allocation(g, c, rng);
  const double m = engine.evaluate_one(alloc);
  EXPECT_TRUE(std::isfinite(m));
  ListScheduler fresh(g, c, model);
  EXPECT_DOUBLE_EQ(m, fresh.makespan(alloc));
}

TEST(EvaluationEngine, ParallelMatchesSerialValues) {
  const Ptg g = irregular_corpus(50, 1, 59).front();
  const Cluster c = grelon();
  const SyntheticModel model;
  Rng rng(6);
  const auto batch = random_batch(g, c, 100, rng);

  for (const bool memoize : {false, true}) {
    EvalEngineConfig serial_cfg;
    serial_cfg.memoize = memoize;
    EvaluationEngine serial(g, model, c, {}, serial_cfg);
    auto a = batch;
    serial.evaluate_batch(a, 0);

    EvalEngineConfig par_cfg = serial_cfg;
    par_cfg.threads = 8;
    EvaluationEngine parallel(g, model, c, {}, par_cfg);
    EXPECT_EQ(parallel.num_slots(), 8u);
    EXPECT_EQ(parallel.pool().num_threads(), 7u);
    auto b = batch;
    parallel.evaluate_batch(b, 0);

    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_DOUBLE_EQ(a[i].fitness, b[i].fitness) << "memoize=" << memoize;
    }
  }
}

TEST(EvaluationEngine, StatsAreConsistent) {
  const Ptg g = irregular_corpus(30, 1, 60).front();
  const Cluster c = chti();
  const SyntheticModel model;
  EvalEngineConfig cfg;
  cfg.memoize = true;
  EvaluationEngine engine(g, model, c, {}, cfg);

  Rng rng(8);
  auto batch = random_batch(g, c, 25, rng);
  // Duplicate a few genomes so hits occur inside one batch too.
  batch[5].genes = batch[0].genes;
  batch[6].genes = batch[0].genes;
  engine.evaluate_batch(batch, 0);
  engine.evaluate_batch(batch, 20);  // partial re-evaluation

  const EvalStats s = engine.stats();
  EXPECT_EQ(s.evaluations, 30u);
  EXPECT_EQ(s.batches, 2u);
  EXPECT_EQ(s.evaluations, s.cache_hits + s.cache_misses);
  EXPECT_EQ(s.scheduled, s.cache_misses);
  EXPECT_GE(s.cache_hits, 7u);  // 2 in-batch dups + 5 re-evaluated
  EXPECT_GE(s.eval_seconds, 0.0);
  EXPECT_GT(s.throughput(), 0.0);

  engine.reset_stats();
  const EvalStats zero = engine.stats();
  EXPECT_EQ(zero.evaluations, 0u);
  EXPECT_EQ(zero.scheduled, 0u);
  EXPECT_EQ(zero.rejections, 0u);
  EXPECT_EQ(zero.batches, 0u);
  EXPECT_DOUBLE_EQ(zero.eval_seconds, 0.0);

  // The cache survives a stats reset.
  auto again = batch;
  engine.evaluate_batch(again, 0);
  EXPECT_EQ(engine.stats().scheduled, 0u);
  engine.clear_cache();
  auto third = batch;
  engine.evaluate_batch(third, 0);
  EXPECT_GT(engine.stats().scheduled, 0u);
}

TEST(EvaluationEngine, FitnessFnMatchesEvaluateOneAndCountsWork) {
  const Ptg g = irregular_corpus(25, 1, 63).front();
  const Cluster c = chti();
  const SyntheticModel model;
  EvaluationEngine engine(g, model, c);
  const FitnessFn fitness = engine.fitness_fn();

  Rng rng(14);
  for (int trial = 0; trial < 5; ++trial) {
    const Allocation alloc = random_allocation(g, c, rng);
    // Any slot index is accepted (local search passes a thread id, which
    // the engine folds onto its own slots) and yields the exact makespan.
    EXPECT_DOUBLE_EQ(fitness(alloc, static_cast<std::size_t>(trial) * 31),
                     engine.evaluate_one(alloc));
  }
  EXPECT_EQ(engine.stats().evaluations, 10u);
}

TEST(EvaluationEngine, RejectionCountIsAnExactDeltaAfterReset) {
  const Ptg g = irregular_corpus(30, 1, 62).front();
  const Cluster c = chti();
  const SyntheticModel model;
  EvalEngineConfig cfg;
  cfg.use_rejection = true;
  EvaluationEngine engine(g, model, c, {}, cfg);

  Rng rng(12);
  auto batch = random_batch(g, c, 10, rng);
  engine.set_incumbent(0.0);  // every evaluation rejects immediately
  engine.evaluate_batch(batch, 0);
  ASSERT_EQ(engine.stats().rejections, batch.size());

  // After a reset the next window counts from zero: the schedulers' own
  // counters are cleared, not merely offset against a lifetime total.
  engine.reset_stats();
  EXPECT_EQ(engine.stats().rejections, 0u);

  auto second = random_batch(g, c, 4, rng);
  engine.evaluate_batch(second, 0);
  EXPECT_EQ(engine.stats().rejections, second.size());
  EXPECT_EQ(engine.stats().evaluations, second.size());

  // An accepted window after relaxing the bound adds no rejections.
  engine.reset_stats();
  engine.set_incumbent(kInf);
  auto third = random_batch(g, c, 4, rng);
  engine.evaluate_batch(third, 0);
  EXPECT_EQ(engine.stats().rejections, 0u);
  EXPECT_EQ(engine.stats().scheduled, third.size());
}

TEST(EvaluationEngine, ColdCacheSamplerSkipsProbesAndStaysExact) {
  // A long stream of distinct allocations never hits the memo cache; the
  // cold-cache sampler must detect that within its first probe window and
  // start skipping most lookups (the BENCH_6 memo-lane fix) — without
  // ever changing a returned value.
  const Ptg g = irregular_corpus(30, 1, 64).front();
  const Cluster c = chti();
  const SyntheticModel model;
  EvalEngineConfig cfg;
  cfg.memoize = true;
  EvaluationEngine engine(g, model, c, {}, cfg);
  ListScheduler fresh(g, c, model);

  Rng rng(21);
  auto batch = random_batch(g, c, 300, rng);
  engine.evaluate_batch(batch, 0);
  for (const auto& ind : batch) {
    EXPECT_DOUBLE_EQ(ind.fitness, fresh.makespan(ind.genes));
  }
  EvalStats s = engine.stats();
  // All-distinct genomes: the first full probe window misses, the slot
  // goes cold, and most of the remaining lookups are skipped.
  EXPECT_GT(s.cache_skipped, 0u);
  EXPECT_EQ(s.evaluations, s.cache_hits + s.cache_misses + s.cache_skipped);

  // Re-evaluating the same genomes stays exact: entries the sampler
  // skipped on insert are simply recomputed, never served stale.
  auto again = batch;
  for (auto& ind : again) ind.fitness = -1.0;
  engine.evaluate_batch(again, 0);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_DOUBLE_EQ(again[i].fitness, batch[i].fitness);
  }
  s = engine.stats();
  EXPECT_EQ(s.evaluations, s.cache_hits + s.cache_misses + s.cache_skipped);

  // A warm access pattern (few distinct genomes, many repeats) must keep
  // probing normally: no skips before the window can even fill.
  EvaluationEngine warm(g, model, c, {}, cfg);
  auto dup = random_batch(g, c, 4, rng);
  for (int round = 0; round < 8; ++round) {
    auto w = dup;
    warm.evaluate_batch(w, 0);
  }
  EXPECT_EQ(warm.stats().cache_skipped, 0u);
  EXPECT_GE(warm.stats().cache_hits, 28u);
}

TEST(EvaluationEngine, BuildScheduleMatchesFitness) {
  const Ptg g = irregular_corpus(25, 1, 61).front();
  const Cluster c = chti();
  const SyntheticModel model;
  EvaluationEngine engine(g, model, c);
  Rng rng(9);
  const Allocation alloc = random_allocation(g, c, rng);
  const double m = engine.evaluate_one(alloc);
  EXPECT_DOUBLE_EQ(engine.build_schedule(alloc).makespan(), m);
}

TEST(EvaluationEngine, RunsOnlyTheFullKernel) {
  const Ptg g = irregular_corpus(20, 1, 111).front();
  const Cluster c = chti();
  const SyntheticModel model;
  EXPECT_EQ(EvaluationEngine(g, model, c).kernel_mode(), KernelMode::Full);
  EvalEngineConfig cfg;
  cfg.kernel = KernelMode::Full;
  EXPECT_EQ(EvaluationEngine(g, model, c, {}, cfg).kernel_mode(),
            KernelMode::Full);
  for (const KernelMode removed :
       {KernelMode::Incremental, KernelMode::Batched}) {
    cfg.kernel = removed;
    EXPECT_THROW(EvaluationEngine(g, model, c, {}, cfg),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace ptgsched
