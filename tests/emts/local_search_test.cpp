// Tests for the alternative search strategies (random search, hill
// climbing, simulated annealing).

#include "ea/local_search.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace ptgsched {
namespace {

FitnessFn sphere(Allocation target) {
  return [target = std::move(target)](const Allocation& genes, std::size_t) {
    double sum = 0.0;
    for (std::size_t i = 0; i < genes.size(); ++i) {
      const double d = genes[i] - target[i];
      sum += d * d;
    }
    return sum;
  };
}

MutateFn stepper(int max_gene) {
  return [max_gene](Allocation& child, std::size_t, Rng& rng) {
    const std::size_t pos = rng.index(child.size());
    child[pos] = static_cast<int>(std::clamp<std::int64_t>(
        child[pos] + rng.uniform_int(-2, 2), 1, max_gene));
  };
}

Individual seed_of(Allocation genes) {
  Individual ind;
  ind.genes = std::move(genes);
  ind.origin = "seed";
  return ind;
}

LocalSearchConfig budget(std::size_t evals, std::uint64_t seed = 1) {
  LocalSearchConfig cfg;
  cfg.max_evaluations = evals;
  cfg.seed = seed;
  return cfg;
}

TEST(RandomSearch, RespectsEvaluationBudget) {
  const SearchResult r = random_search({seed_of({5, 5})}, sphere({1, 1}),
                                       stepper(10), budget(50));
  EXPECT_EQ(r.evaluations, 50u);
  EXPECT_EQ(r.trace.size(), 50u);
}

TEST(RandomSearch, NeverWorseThanBestSeed) {
  const auto fitness = sphere({3, 3, 3});
  const std::vector<Individual> seeds = {seed_of({9, 9, 9}),
                                         seed_of({4, 4, 4})};
  const SearchResult r =
      random_search(seeds, fitness, stepper(10), budget(40));
  EXPECT_LE(r.best.fitness, fitness(seeds[1].genes, 0));
}

TEST(HillClimber, ConvergesOnToyProblem) {
  const SearchResult r = hill_climb({seed_of({1, 1, 1, 1})},
                                    sphere({7, 7, 7, 7}), stepper(10),
                                    budget(600));
  EXPECT_LT(r.best.fitness, 4.0);
}

TEST(HillClimber, TraceIsMonotone) {
  const SearchResult r = hill_climb({seed_of({2, 9, 4})}, sphere({5, 5, 5}),
                                    stepper(10), budget(200));
  for (std::size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_LE(r.trace[i], r.trace[i - 1] + 1e-12);
  }
  EXPECT_DOUBLE_EQ(r.trace.back(), r.best.fitness);
}

TEST(HillClimber, Deterministic) {
  const auto run = [] {
    return hill_climb({seed_of({2, 9, 4})}, sphere({5, 5, 5}), stepper(10),
                      budget(100, 7));
  };
  const SearchResult a = run();
  const SearchResult b = run();
  EXPECT_EQ(a.best.genes, b.best.genes);
  EXPECT_EQ(a.trace, b.trace);
}

TEST(SimulatedAnnealing, ConvergesOnToyProblem) {
  AnnealingConfig cfg;
  cfg.max_evaluations = 800;
  cfg.seed = 3;
  const SearchResult r = simulated_annealing(
      {seed_of({1, 1, 1, 1})}, sphere({8, 8, 8, 8}), stepper(10), cfg);
  EXPECT_LT(r.best.fitness, 8.0);
}

TEST(SimulatedAnnealing, BestTraceMonotoneEvenIfIncumbentWanders) {
  AnnealingConfig cfg;
  cfg.max_evaluations = 300;
  cfg.initial_temperature_fraction = 0.5;  // hot: expect accepted worsening
  cfg.seed = 4;
  const SearchResult r = simulated_annealing(
      {seed_of({5, 5})}, sphere({2, 8}), stepper(10), cfg);
  for (std::size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_LE(r.trace[i], r.trace[i - 1] + 1e-12);
  }
}

TEST(SimulatedAnnealing, RejectsBadConfig) {
  AnnealingConfig cfg;
  cfg.initial_temperature_fraction = 0.0;
  EXPECT_THROW((void)simulated_annealing({seed_of({1})}, sphere({1}),
                                         stepper(2), cfg),
               std::invalid_argument);
  cfg = AnnealingConfig{};
  cfg.cooling = 1.0;
  EXPECT_THROW((void)simulated_annealing({seed_of({1})}, sphere({1}),
                                         stepper(2), cfg),
               std::invalid_argument);
}

TEST(LocalSearch, CommonInputValidation) {
  const auto fitness = sphere({1});
  const auto mutate = stepper(2);
  EXPECT_THROW((void)hill_climb({}, fitness, mutate, budget(10)),
               std::invalid_argument);
  EXPECT_THROW((void)random_search({seed_of({})}, fitness, mutate,
                                   budget(10)),
               std::invalid_argument);
  EXPECT_THROW((void)hill_climb({seed_of({1})}, fitness, mutate, budget(0)),
               std::invalid_argument);
  LocalSearchConfig cfg = budget(10);
  cfg.pseudo_generations = 0;
  EXPECT_THROW((void)hill_climb({seed_of({1})}, fitness, mutate, cfg),
               std::invalid_argument);
}

TEST(LocalSearch, HillClimbBeatsRandomOnStructuredProblem) {
  // With a tight budget, walking beats re-rolling around the seed.
  const auto fitness = sphere({10, 10, 10, 10, 10, 10});
  const std::vector<Individual> seeds = {seed_of({1, 1, 1, 1, 1, 1})};
  double hc_total = 0.0;
  double rs_total = 0.0;
  for (std::uint64_t s = 0; s < 10; ++s) {
    hc_total +=
        hill_climb(seeds, fitness, stepper(12), budget(150, s)).best.fitness;
    rs_total += random_search(seeds, fitness, stepper(12), budget(150, s))
                    .best.fitness;
  }
  EXPECT_LT(hc_total, rs_total);
}

}  // namespace
}  // namespace ptgsched
