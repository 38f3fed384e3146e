// Tests for the generic (mu + lambda) evolution strategy.

#include "ea/evolution.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>

namespace ptgsched {
namespace {

// Toy fitness: minimize sum of squared distance to a target vector.
FitnessFn sphere_fitness(Allocation target) {
  return [target = std::move(target)](const Allocation& genes, std::size_t) {
    double sum = 0.0;
    for (std::size_t i = 0; i < genes.size(); ++i) {
      const double d = genes[i] - target[i];
      sum += d * d;
    }
    return sum;
  };
}

MutateFn step_mutator(int max_gene) {
  return [max_gene](Allocation& child, std::size_t, Rng& rng) {
    const std::size_t pos = rng.index(child.size());
    child[pos] = static_cast<int>(std::clamp<std::int64_t>(
        child[pos] + rng.uniform_int(-2, 2), 1, max_gene));
  };
}

Individual seed_of(Allocation genes, std::string origin = "seed") {
  Individual ind;
  ind.genes = std::move(genes);
  ind.origin = std::move(origin);
  return ind;
}

TEST(EvolutionStrategy, ConvergesOnToyProblem) {
  EsConfig cfg;
  cfg.mu = 5;
  cfg.lambda = 20;
  cfg.generations = 60;
  cfg.seed = 1;
  EvolutionStrategy es(cfg, sphere_fitness({5, 9, 2, 7}), step_mutator(10));
  const EsResult result = es.run({seed_of({1, 1, 1, 1})});
  EXPECT_LT(result.best.fitness, 5.0);
}

TEST(EvolutionStrategy, PlusSelectionNeverWorsens) {
  // Section V: "the population can never become worse while the
  // generations proceed" under the Plus strategy.
  EsConfig cfg;
  cfg.mu = 3;
  cfg.lambda = 6;
  cfg.generations = 30;
  cfg.seed = 2;
  EvolutionStrategy es(cfg, sphere_fitness({8, 8, 8}), step_mutator(10));
  const EsResult result = es.run({seed_of({1, 2, 3})});
  double prev = std::numeric_limits<double>::infinity();
  for (const auto& gs : result.history) {
    EXPECT_LE(gs.best, prev + 1e-12);
    prev = gs.best;
  }
}

TEST(EvolutionStrategy, BestNeverWorseThanAnySeed) {
  EsConfig cfg;
  cfg.mu = 4;
  cfg.lambda = 8;
  cfg.generations = 5;
  cfg.seed = 3;
  const auto fitness = sphere_fitness({4, 4});
  EvolutionStrategy es(cfg, fitness, step_mutator(8));
  const std::vector<Individual> seeds = {seed_of({1, 1}), seed_of({4, 5}),
                                         seed_of({8, 8})};
  const EsResult result = es.run(seeds);
  for (const auto& s : seeds) {
    EXPECT_LE(result.best.fitness, fitness(s.genes, 0));
  }
}

TEST(EvolutionStrategy, DeterministicGivenSeed) {
  EsConfig cfg;
  cfg.mu = 3;
  cfg.lambda = 10;
  cfg.generations = 10;
  cfg.seed = 77;
  const auto run_once = [&] {
    EvolutionStrategy es(cfg, sphere_fitness({6, 3, 9, 1}), step_mutator(10));
    return es.run({seed_of({5, 5, 5, 5})});
  };
  const EsResult a = run_once();
  const EsResult b = run_once();
  EXPECT_EQ(a.best.genes, b.best.genes);
  EXPECT_DOUBLE_EQ(a.best.fitness, b.best.fitness);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(EvolutionStrategy, SeedChangesTrajectory) {
  EsConfig cfg;
  cfg.mu = 3;
  cfg.lambda = 10;
  cfg.generations = 3;
  cfg.seed = 1;
  EvolutionStrategy es1(cfg, sphere_fitness({6, 3, 9, 1}), step_mutator(10));
  cfg.seed = 2;
  EvolutionStrategy es2(cfg, sphere_fitness({6, 3, 9, 1}), step_mutator(10));
  const EsResult a = es1.run({seed_of({5, 5, 5, 5})});
  const EsResult b = es2.run({seed_of({5, 5, 5, 5})});
  // Different RNG seeds explore differently (genes or history differ).
  EXPECT_TRUE(a.best.genes != b.best.genes ||
              a.history.back().mean != b.history.back().mean);
}

TEST(EvolutionStrategy, EvaluationCountIsExact) {
  EsConfig cfg;
  cfg.mu = 5;
  cfg.lambda = 25;
  cfg.generations = 5;
  cfg.seed = 5;
  EvolutionStrategy es(cfg, sphere_fitness({3, 3}), step_mutator(6));
  // 1 seed -> filled to mu = 5 initial evaluations, then 5 * 25 offspring.
  const EsResult result = es.run({seed_of({1, 1})});
  EXPECT_EQ(result.evaluations, 5u + 5u * 25u);
  EXPECT_EQ(result.generations_run, 5u);
  EXPECT_EQ(result.history.size(), 6u);  // initial + one per generation
}

TEST(EvolutionStrategy, SurplusSeedsCompeteInFirstSelection) {
  EsConfig cfg;
  cfg.mu = 2;
  cfg.lambda = 4;
  cfg.generations = 1;
  cfg.seed = 6;
  const auto fitness = sphere_fitness({9, 9});
  EvolutionStrategy es(cfg, fitness, step_mutator(10));
  // Three seeds, mu = 2: the best two must survive; the best seed is
  // {9, 9} with fitness 0 and must be the final best.
  const EsResult result =
      es.run({seed_of({1, 1}), seed_of({9, 9}), seed_of({5, 5})});
  EXPECT_DOUBLE_EQ(result.best.fitness, 0.0);
}

TEST(EvolutionStrategy, CommaSelectionAllowedToWorsen) {
  EsConfig cfg;
  cfg.mu = 2;
  cfg.lambda = 4;
  cfg.generations = 2;
  cfg.plus_selection = false;
  cfg.seed = 7;
  EvolutionStrategy es(cfg, sphere_fitness({5, 5}), step_mutator(10));
  // Runs without error; history exists. (Worsening is possible, not
  // guaranteed, so only the mechanics are asserted.)
  const EsResult result = es.run({seed_of({5, 5})});
  EXPECT_EQ(result.history.size(), 3u);
}

TEST(EvolutionStrategy, CommaRequiresLambdaGeMu) {
  EsConfig cfg;
  cfg.mu = 10;
  cfg.lambda = 5;
  cfg.plus_selection = false;
  EXPECT_THROW(EvolutionStrategy(cfg, sphere_fitness({1}), step_mutator(2)),
               std::invalid_argument);
}

TEST(EvolutionStrategy, StagnationStopsEarly) {
  EsConfig cfg;
  cfg.mu = 2;
  cfg.lambda = 4;
  cfg.generations = 100;
  cfg.stagnation_limit = 3;
  cfg.seed = 8;
  // Fitness already optimal: no improvement is possible.
  EvolutionStrategy es(cfg, sphere_fitness({1, 1}), step_mutator(1));
  const EsResult result = es.run({seed_of({1, 1})});
  EXPECT_TRUE(result.stopped_by_stagnation);
  EXPECT_LT(result.generations_run, 100u);
}

TEST(EvolutionStrategy, TimeBudgetStops) {
  EsConfig cfg;
  cfg.mu = 2;
  cfg.lambda = 4;
  cfg.generations = 1000000;  // would run "forever"
  cfg.time_budget_seconds = 0.05;
  cfg.seed = 9;
  EvolutionStrategy es(cfg, sphere_fitness({3, 3}), step_mutator(5));
  const EsResult result = es.run({seed_of({1, 1})});
  EXPECT_TRUE(result.stopped_by_time_budget);
  EXPECT_LT(result.elapsed_seconds, 5.0);
}

TEST(EvolutionStrategy, ParallelEvaluationMatchesSerial) {
  EsConfig cfg;
  cfg.mu = 4;
  cfg.lambda = 16;
  cfg.generations = 8;
  cfg.seed = 10;
  EvolutionStrategy serial(cfg, sphere_fitness({7, 2, 5}), step_mutator(9));
  cfg.threads = 4;
  EvolutionStrategy parallel(cfg, sphere_fitness({7, 2, 5}), step_mutator(9));
  const EsResult a = serial.run({seed_of({1, 1, 1})});
  const EsResult b = parallel.run({seed_of({1, 1, 1})});
  EXPECT_EQ(a.best.genes, b.best.genes);
  EXPECT_DOUBLE_EQ(a.best.fitness, b.best.fitness);
}

TEST(EvolutionStrategy, WorkerThreadsPersistAcrossGenerations) {
  // Regression for the per-generation ThreadPool construction the ES used
  // to do: every fitness evaluation must run either on the evaluator's
  // persistent workers or on the driving thread, across all generations.
  EsConfig cfg;
  cfg.mu = 4;
  cfg.lambda = 32;
  cfg.generations = 6;
  cfg.seed = 21;

  std::mutex mu;
  std::set<std::thread::id> observed;
  const Allocation target = {5, 9, 2, 7};
  FitnessFn fitness = [&](const Allocation& genes, std::size_t) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      observed.insert(std::this_thread::get_id());
    }
    double sum = 0.0;
    for (std::size_t i = 0; i < genes.size(); ++i) {
      const double d = genes[i] - target[i];
      sum += d * d;
    }
    return sum;
  };

  FnBatchEvaluator evaluator(std::move(fitness), 4);
  const auto workers_before = evaluator.pool().thread_ids();
  ASSERT_EQ(workers_before.size(), 3u);  // threads=4 -> 3 workers + caller

  EvolutionStrategy es(cfg, evaluator, step_mutator(10));
  const EsResult result = es.run({seed_of({1, 1, 1, 1})});
  EXPECT_EQ(result.generations_run, 6u);

  // The pool never recreated its workers...
  EXPECT_EQ(evaluator.pool().thread_ids(), workers_before);
  // ...and every observed evaluation thread is either a persistent worker
  // or the driving thread. A fresh pool per generation would leak other
  // transient thread ids into `observed`.
  for (const auto& id : observed) {
    const bool is_worker = std::find(workers_before.begin(),
                                     workers_before.end(),
                                     id) != workers_before.end();
    EXPECT_TRUE(is_worker || id == std::this_thread::get_id());
  }
  EXPECT_LE(observed.size(), workers_before.size() + 1);
}

TEST(EvolutionStrategy, BatchEvaluatorSelectionCheckpoints) {
  // on_selection fires after the initial selection and after every
  // generation, with best <= worst and no evaluations in flight.
  struct Recorder final : BatchEvaluator {
    std::vector<std::pair<double, double>> checkpoints;
    Allocation target{4, 4};
    void evaluate_batch(std::vector<Individual>& pool,
                        std::size_t begin) override {
      for (std::size_t i = begin; i < pool.size(); ++i) {
        double sum = 0.0;
        for (std::size_t j = 0; j < pool[i].genes.size(); ++j) {
          const double d = pool[i].genes[j] - target[j];
          sum += d * d;
        }
        pool[i].fitness = sum;
      }
    }
    void on_selection(std::size_t, double best, double worst) override {
      checkpoints.emplace_back(best, worst);
    }
  } recorder;

  EsConfig cfg;
  cfg.mu = 3;
  cfg.lambda = 6;
  cfg.generations = 4;
  cfg.seed = 9;
  EvolutionStrategy es(cfg, recorder, step_mutator(8));
  const EsResult result = es.run({seed_of({1, 1})});
  EXPECT_EQ(recorder.checkpoints.size(), result.history.size());
  for (std::size_t i = 0; i < recorder.checkpoints.size(); ++i) {
    EXPECT_LE(recorder.checkpoints[i].first, recorder.checkpoints[i].second);
    EXPECT_DOUBLE_EQ(recorder.checkpoints[i].first, result.history[i].best);
    EXPECT_DOUBLE_EQ(recorder.checkpoints[i].second,
                     result.history[i].worst);
  }
}

TEST(EvolutionStrategy, RejectsBadConfigAndInput) {
  EsConfig cfg;
  cfg.mu = 0;
  EXPECT_THROW(EvolutionStrategy(cfg, sphere_fitness({1}), step_mutator(2)),
               std::invalid_argument);
  cfg = EsConfig{};
  cfg.lambda = 0;
  EXPECT_THROW(EvolutionStrategy(cfg, sphere_fitness({1}), step_mutator(2)),
               std::invalid_argument);
  cfg = EsConfig{};
  EXPECT_THROW(EvolutionStrategy(cfg, nullptr, step_mutator(2)),
               std::invalid_argument);
  EvolutionStrategy ok(cfg, sphere_fitness({1}), step_mutator(2));
  EXPECT_THROW((void)ok.run({}), std::invalid_argument);
  EXPECT_THROW((void)ok.run({seed_of({})}), std::invalid_argument);
}

TEST(EvolutionStrategy, HistoryStatisticsConsistent) {
  EsConfig cfg;
  cfg.mu = 5;
  cfg.lambda = 10;
  cfg.generations = 4;
  cfg.seed = 11;
  EvolutionStrategy es(cfg, sphere_fitness({5, 5}), step_mutator(10));
  const EsResult result = es.run({seed_of({2, 2})});
  for (const auto& gs : result.history) {
    EXPECT_LE(gs.best, gs.mean);
    EXPECT_LE(gs.mean, gs.worst);
    EXPECT_GE(gs.elapsed_seconds, 0.0);
  }
  EXPECT_EQ(result.history.back().evaluations, result.evaluations);
}

}  // namespace
}  // namespace ptgsched
