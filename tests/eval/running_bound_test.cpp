// The rejection strategy's running bound: each wave of offspring is bounded
// by the begin-th best exact fitness among the parents and the earlier
// waves. These tests check that every rejection is sound (the child really
// is beaten by `begin` pool entries), that the running bound rejects more
// than the frozen worst-parent incumbent, that EMTS trajectories are
// identical with rejection off and on in every kernel mode, thread count
// and memo setting, that rejection counts do not depend on thread count,
// and that pooled engines follow each run's rejection setting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "daggen/corpus.hpp"
#include "emts/emts.hpp"
#include "eval/engine_pool.hpp"
#include "eval/evaluation_engine.hpp"
#include "model/execution_time.hpp"
#include "platform/cluster.hpp"
#include "support/rng.hpp"

namespace ptgsched {
namespace {

constexpr KernelMode kModes[] = {KernelMode::Full, KernelMode::Incremental,
                                 KernelMode::Batched};

const char* mode_name(KernelMode m) {
  switch (m) {
    case KernelMode::Full: return "full";
    case KernelMode::Incremental: return "incremental";
    case KernelMode::Batched: return "batched";
  }
  return "?";
}

Allocation random_allocation(std::size_t n, int P, Rng& rng) {
  Allocation alloc(n);
  for (auto& s : alloc) s = static_cast<int>(rng.uniform_int(1, P));
  return alloc;
}

/// `begin` random parents with exact fitness, followed by `lambda`
/// mutants carrying parent/touched lineage (so every kernel mode runs its
/// own path). Random parents are poor, so good children keep lowering the
/// running bound below the worst parent.
std::vector<Individual> make_pool(const ProblemInstance& pi,
                                  std::size_t begin, std::size_t lambda,
                                  Rng& rng) {
  const std::size_t n = pi.graph().num_tasks();
  const int P = pi.num_processors();
  ListScheduler exact(pi.graph(), pi.cluster(), pi.model());
  std::vector<Individual> pool(begin + lambda);
  for (std::size_t i = 0; i < begin; ++i) {
    pool[i].genes = random_allocation(n, P, rng);
    pool[i].fitness = exact.makespan(pool[i].genes);
  }
  for (std::size_t i = begin; i < pool.size(); ++i) {
    Individual& child = pool[i];
    child.parent = rng.index(begin);
    child.genes = pool[child.parent].genes;
    const std::size_t genes = 1 + rng.index(n / 2);
    for (std::size_t k = 0; k < genes; ++k) {
      const auto v = static_cast<TaskId>(rng.index(n));
      child.genes[v] = static_cast<int>(rng.uniform_int(1, P));
      child.touched.push_back(v);
    }
  }
  return pool;
}

EvalEngineConfig bounded_config(KernelMode mode, std::size_t threads) {
  EvalEngineConfig cfg;
  cfg.use_rejection = true;
  cfg.kernel = mode;
  cfg.threads = threads;
  return cfg;
}

TEST(RunningBound, RejectsOnlyChildrenBeatenByBeginEntries) {
  const Cluster c = grelon();
  const SyntheticModel model;
  const auto graphs = irregular_corpus(60, 3, 1201);
  std::size_t running_rejections = 0;
  std::size_t frozen_rejections = 0;
  for (const Ptg& g : graphs) {
    const auto pi = ProblemInstance::borrow(g, model, c);
    ListScheduler exact(g, c, model);
    Rng rng(g.num_tasks());
    for (const std::size_t begin : {1u, 2u, 5u, 10u}) {
      const std::vector<Individual> pool = make_pool(*pi, begin, 60, rng);
      double worst_parent = 0.0;
      for (std::size_t i = 0; i < begin; ++i) {
        worst_parent = std::max(worst_parent, pool[i].fitness);
      }
      std::vector<double> exact_fitness(pool.size());
      for (std::size_t i = 0; i < pool.size(); ++i) {
        exact_fitness[i] = exact.makespan(pool[i].genes);
      }
      // The frozen bound: every child against the worst parent.
      for (std::size_t i = begin; i < pool.size(); ++i) {
        if (exact_fitness[i] > worst_parent) ++frozen_rejections;
      }

      for (const KernelMode mode : kModes) {
        const std::string label = std::string(mode_name(mode)) +
                                  " begin=" + std::to_string(begin);
        EvaluationEngine engine(pi, {}, bounded_config(mode, 0));
        engine.on_selection(0, 0.0, worst_parent);
        std::vector<Individual> evaluated = pool;
        engine.evaluate_batch(evaluated, begin);
        std::size_t rejected = 0;
        for (std::size_t i = begin; i < pool.size(); ++i) {
          if (std::isfinite(evaluated[i].fitness)) {
            EXPECT_EQ(evaluated[i].fitness, exact_fitness[i]) << label;
            continue;
          }
          // Waves run in pool order, so the entries that bounded child i
          // all sit before it: `begin` of them must beat it.
          ++rejected;
          std::size_t strictly_better = 0;
          for (std::size_t j = 0; j < i; ++j) {
            if (exact_fitness[j] < exact_fitness[i]) ++strictly_better;
          }
          EXPECT_GE(strictly_better, begin) << label << " child " << i;
        }
        EXPECT_EQ(engine.stats().rejections, rejected) << label;
        if (mode == KernelMode::Full) running_rejections += rejected;
      }
    }
  }
  // The running bound tightens as children finish, so it must reject
  // strictly more than the worst parent alone would.
  EXPECT_GT(running_rejections, frozen_rejections);
}

TEST(RunningBound, BatchIsIdenticalAcrossModesAndThreads) {
  const Cluster c = grelon();
  const SyntheticModel model;
  const Ptg g = irregular_corpus(50, 1, 1202).front();
  const auto pi = ProblemInstance::borrow(g, model, c);
  Rng rng(5);
  const std::vector<Individual> pool = make_pool(*pi, 10, 100, rng);

  EvaluationEngine reference(pi, {}, bounded_config(KernelMode::Full, 0));
  std::vector<Individual> want = pool;
  reference.evaluate_batch(want, 10);
  const std::size_t want_rejections = reference.stats().rejections;
  ASSERT_GT(want_rejections, 0u);

  for (const KernelMode mode : kModes) {
    for (const std::size_t threads : {0u, 2u, 8u}) {
      const std::string label = std::string(mode_name(mode)) +
                                " threads=" + std::to_string(threads);
      EvaluationEngine engine(pi, {}, bounded_config(mode, threads));
      std::vector<Individual> got = pool;
      engine.evaluate_batch(got, 10);
      for (std::size_t i = 10; i < pool.size(); ++i) {
        EXPECT_EQ(got[i].fitness, want[i].fitness) << label << " child " << i;
      }
      EXPECT_EQ(engine.stats().rejections, want_rejections) << label;
    }
  }
}

TEST(RunningBound, InitialBatchIsNeverBounded) {
  // begin = 0: there are no survivors to compete against, so every value
  // is exact even though the running bound is on.
  const Cluster c = chti();
  const SyntheticModel model;
  const Ptg g = irregular_corpus(40, 1, 1203).front();
  const auto pi = ProblemInstance::borrow(g, model, c);
  ListScheduler exact(g, c, model);
  Rng rng(6);
  std::vector<Individual> pool(40);
  for (auto& ind : pool) {
    ind.genes = random_allocation(g.num_tasks(), c.num_processors(), rng);
  }
  EvaluationEngine engine(pi, {}, bounded_config(KernelMode::Full, 0));
  engine.evaluate_batch(pool, 0);
  for (const auto& ind : pool) {
    EXPECT_EQ(ind.fitness, exact.makespan(ind.genes));
  }
  EXPECT_EQ(engine.stats().rejections, 0u);
}

// --- EMTS level -------------------------------------------------------------

EmtsConfig emts_config(KernelMode mode, std::size_t threads, bool memoize,
                       bool rejection) {
  EmtsConfig cfg = emts10_config();
  cfg.seed = 17;
  cfg.kernel = mode;
  cfg.threads = threads;
  cfg.memoize = memoize;
  cfg.use_rejection = rejection;
  return cfg;
}

void expect_same_run(const EmtsResult& a, const EmtsResult& b,
                     const std::string& label) {
  EXPECT_EQ(a.makespan, b.makespan) << label;
  EXPECT_EQ(a.best_allocation, b.best_allocation) << label;
  ASSERT_EQ(a.es.history.size(), b.es.history.size()) << label;
  for (std::size_t u = 0; u < a.es.history.size(); ++u) {
    const GenerationStats& ga = a.es.history[u];
    const GenerationStats& gb = b.es.history[u];
    EXPECT_EQ(ga.generation, gb.generation) << label << " gen " << u;
    EXPECT_EQ(ga.best, gb.best) << label << " gen " << u;
    EXPECT_EQ(ga.mean, gb.mean) << label << " gen " << u;
    EXPECT_EQ(ga.worst, gb.worst) << label << " gen " << u;
    EXPECT_EQ(ga.evaluations, gb.evaluations) << label << " gen " << u;
  }
  EXPECT_EQ(a.es.evaluations, b.es.evaluations) << label;
}

TEST(RunningBoundEmts, TrajectoryIsIdenticalWithRejectionOffAndOn) {
  const Cluster c = grelon();
  const SyntheticModel model;
  for (const Ptg& g : irregular_corpus(40, 2, 1204)) {
    const auto pi = ProblemInstance::borrow(g, model, c);
    for (const KernelMode mode : kModes) {
      for (const std::size_t threads : {0u, 2u, 8u}) {
        for (const bool memoize : {false, true}) {
          const std::string label =
              g.name() + " " + mode_name(mode) +
              " threads=" + std::to_string(threads) +
              " memoize=" + (memoize ? "on" : "off");
          const EmtsResult off =
              Emts(emts_config(mode, threads, memoize, false)).schedule(pi);
          const EmtsResult on =
              Emts(emts_config(mode, threads, memoize, true)).schedule(pi);
          expect_same_run(off, on, label);
          EXPECT_EQ(off.eval_stats.rejections, 0u) << label;
          EXPECT_GT(on.eval_stats.rejections, 0u) << label;
        }
      }
    }
  }
}

TEST(RunningBoundEmts, RejectionCountsIgnoreThreadsAndReruns) {
  // With the memo cache off every child runs its bounded pass against its
  // wave's bound, and that bound depends only on earlier waves.
  const Cluster c = grelon();
  const SyntheticModel model;
  const Ptg g = irregular_corpus(60, 1, 1205).front();
  const auto pi = ProblemInstance::borrow(g, model, c);
  for (const KernelMode mode : kModes) {
    const EmtsResult serial =
        Emts(emts_config(mode, 0, false, true)).schedule(pi);
    ASSERT_GT(serial.eval_stats.rejections, 0u);
    for (const std::size_t threads : {0u, 2u, 8u}) {
      for (int rerun = 0; rerun < 2; ++rerun) {
        const std::string label = std::string(mode_name(mode)) +
                                  " threads=" + std::to_string(threads) +
                                  " rerun=" + std::to_string(rerun);
        const EmtsResult r =
            Emts(emts_config(mode, threads, false, true)).schedule(pi);
        expect_same_run(serial, r, label);
        EXPECT_EQ(r.eval_stats.rejections, serial.eval_stats.rejections)
            << label;
        EXPECT_EQ(r.eval_stats.scheduled, serial.eval_stats.scheduled)
            << label;
      }
    }
  }
}

TEST(RunningBoundEmts, RejectionIsOnByDefaultAndIgnoredUnderComma) {
  const Cluster c = grelon();
  const SyntheticModel model;
  const Ptg g = irregular_corpus(40, 1, 1206).front();
  EmtsConfig cfg = emts5_config();
  EXPECT_TRUE(cfg.use_rejection);
  EXPECT_GT(Emts(cfg).schedule(g, model, c).eval_stats.rejections, 0u);
  cfg.plus_selection = false;
  EXPECT_EQ(Emts(cfg).schedule(g, model, c).eval_stats.rejections, 0u);
}

// --- Pooled engines ---------------------------------------------------------

TEST(RunningBoundPool, PooledRunEqualsFreshRun) {
  const auto graph = std::make_shared<const Ptg>(
      irregular_corpus(60, 1, 1207).front());
  const auto model = std::make_shared<const SyntheticModel>();
  const auto cluster = std::make_shared<const Cluster>(grelon());
  const auto make_instance = [&] {
    return ProblemInstance::create(graph, model, cluster);
  };
  EmtsConfig cfg = emts10_config();
  cfg.seed = 29;
  const EmtsResult fresh = Emts(cfg).schedule(make_instance());
  ASSERT_GT(fresh.eval_stats.rejections, 0u);

  EnginePool pool;
  EmtsResult pooled;
  {
    EnginePool::Lease lease = pool.acquire(7, make_instance);
    pooled = Emts(cfg).schedule(lease.engine());
  }
  expect_same_run(fresh, pooled, "pooled");
  EXPECT_EQ(pooled.eval_stats.rejections, fresh.eval_stats.rejections);

  // A later run on the now warm engine keeps the trajectory, and a run
  // with rejection off on the same engine really does not reject.
  {
    EnginePool::Lease lease = pool.acquire(7, make_instance);
    expect_same_run(fresh, Emts(cfg).schedule(lease.engine()), "warm");
  }
  {
    EnginePool::Lease lease = pool.acquire(7, make_instance);
    EmtsConfig off = cfg;
    off.use_rejection = false;
    const EmtsResult r = Emts(off).schedule(lease.engine());
    expect_same_run(fresh, r, "off");
    EXPECT_EQ(r.eval_stats.rejections, 0u);
  }
  EXPECT_EQ(pool.stats().hits, 2u);
}

// --- Count guard ------------------------------------------------------------

TEST(RunningBoundGuard, MostScheduledPassesAreRejected) {
  // The paper's EMTS10 setting (Model 2, Grelon, 100-task irregular PTGs)
  // with the default configuration. The running bound rejects 76% of the
  // scheduled passes here and the frozen worst-parent bound 43%, so this
  // fails if the running bound is lost. Counts, not wall time: with the
  // memo cache off and one thread they are deterministic.
  const Cluster c = grelon();
  const SyntheticModel model;
  std::size_t scheduled = 0;
  std::size_t rejections = 0;
  for (const Ptg& g : irregular_corpus(100, 4, 42)) {
    EmtsConfig cfg = emts10_config();
    cfg.memoize = false;
    cfg.threads = 0;
    const EmtsResult r = Emts(cfg).schedule(g, model, c);
    scheduled += r.eval_stats.scheduled;
    rejections += r.eval_stats.rejections;
  }
  ASSERT_GT(scheduled, 0u);
  EXPECT_GE(static_cast<double>(rejections),
            0.65 * static_cast<double>(scheduled))
      << rejections << " of " << scheduled << " passes rejected";
}

}  // namespace
}  // namespace ptgsched
