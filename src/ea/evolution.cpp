#include "ea/evolution.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "support/stats.hpp"
#include "support/timer.hpp"

namespace ptgsched {

FnBatchEvaluator::FnBatchEvaluator(FitnessFn fitness, std::size_t threads)
    : fitness_(std::move(fitness)),
      pool_(threads == 0 ? 0 : threads - 1) {
  if (fitness_ == nullptr) {
    throw std::invalid_argument("FnBatchEvaluator: fitness must be callable");
  }
}

void FnBatchEvaluator::evaluate_batch(std::vector<Individual>& pool,
                                      std::size_t begin) {
  const std::size_t n = pool.size() - begin;
  if (n == 0) return;
  if (pool_.num_threads() == 0) {
    for (std::size_t i = begin; i < pool.size(); ++i) {
      pool[i].fitness = fitness_(pool[i].genes, 0);
    }
    return;
  }
  // Small blocks rebalance imbalanced evaluations (e.g. rejection
  // bailouts) across the persistent workers; the slot stays a stable lane
  // id so the fitness function may keep per-slot scratch.
  const std::size_t grain =
      std::max<std::size_t>(1, n / (4 * pool_.num_slots()));
  pool_.parallel_for_blocked(
      n, grain, [&](std::size_t lo, std::size_t hi, std::size_t slot) {
        for (std::size_t i = lo; i < hi; ++i) {
          pool[begin + i].fitness = fitness_(pool[begin + i].genes, slot);
        }
      });
}

EvolutionStrategy::EvolutionStrategy(EsConfig config, BatchEvaluator& evaluator,
                                     MutateFn mutate)
    : config_(config), evaluator_(&evaluator), mutate_(std::move(mutate)) {
  if (config_.mu == 0) throw std::invalid_argument("ES: mu == 0");
  if (config_.lambda == 0) throw std::invalid_argument("ES: lambda == 0");
  if (!config_.plus_selection && config_.lambda < config_.mu) {
    throw std::invalid_argument("ES: comma selection requires lambda >= mu");
  }
  if (mutate_ == nullptr) {
    throw std::invalid_argument("ES: mutate must be callable");
  }
}

EvolutionStrategy::EvolutionStrategy(EsConfig config, FitnessFn fitness,
                                     MutateFn mutate)
    : config_(config), mutate_(std::move(mutate)) {
  if (config_.mu == 0) throw std::invalid_argument("ES: mu == 0");
  if (config_.lambda == 0) throw std::invalid_argument("ES: lambda == 0");
  if (!config_.plus_selection && config_.lambda < config_.mu) {
    throw std::invalid_argument("ES: comma selection requires lambda >= mu");
  }
  if (fitness == nullptr || mutate_ == nullptr) {
    throw std::invalid_argument("ES: fitness and mutate must be callable");
  }
  owned_evaluator_ =
      std::make_unique<FnBatchEvaluator>(std::move(fitness), config_.threads);
  evaluator_ = owned_evaluator_.get();
}

void EvolutionStrategy::set_tracked_mutator(TrackedMutateFn mutate) {
  if (mutate == nullptr) {
    throw std::invalid_argument("ES: tracked mutate must be callable");
  }
  mutate_ = std::move(mutate);
}

void EvolutionStrategy::evaluate(std::vector<Individual>& pool,
                                 std::size_t begin, EsResult& result) {
  const std::size_t n = pool.size() - begin;
  if (n == 0) return;
  evaluator_->evaluate_batch(pool, begin);
  result.evaluations += n;
}

EsResult EvolutionStrategy::run(const std::vector<Individual>& seeds) {
  if (seeds.empty()) throw std::invalid_argument("ES: no starting solutions");
  for (const auto& s : seeds) {
    if (s.genes.empty()) throw std::invalid_argument("ES: empty seed genome");
  }

  WallTimer timer;
  EsResult result;
  Rng rng(config_.seed);

  const auto cancel_requested = [&]() noexcept {
    return config_.cancel != nullptr && config_.cancel->cancelled();
  };

  // Initial population: all seeds, then mutants of random seeds until at
  // least mu individuals exist.
  std::vector<Individual> population;
  population.reserve(std::max(config_.mu, seeds.size()));
  for (const auto& s : seeds) population.push_back(s);
  while (population.size() < config_.mu) {
    const Individual& parent = seeds[rng.index(seeds.size())];
    Individual filler;
    filler.genes = parent.genes;
    mutate_(filler.genes, 0, rng);
    filler.origin = parent.origin.empty() ? "seed-mutant"
                                          : parent.origin + "-mutant";
    population.push_back(std::move(filler));
  }
  evaluate(population, 0, result);
  // A cancel during the initial batch may leave torn (+inf) fitness values
  // in the pool; the flag makes the caller treat `best` as best-effort.
  if (cancel_requested()) result.stopped_by_cancellation = true;

  std::stable_sort(population.begin(), population.end(),
                   [](const Individual& a, const Individual& b) {
                     return a.fitness < b.fitness;
                   });
  population.resize(std::min(population.size(), config_.mu));

  const auto record = [&](std::size_t gen) {
    GenerationStats gs;
    gs.generation = gen;
    gs.best = population.front().fitness;
    gs.worst = population.back().fitness;
    RunningStats rs;
    for (const auto& ind : population) rs.add(ind.fitness);
    gs.mean = rs.mean();
    gs.evaluations = result.evaluations;
    gs.elapsed_seconds = timer.seconds();
    result.history.push_back(gs);
    evaluator_->on_selection(gen, population.front().fitness,
                             population.back().fitness);
    if (config_.on_generation) {
      config_.on_generation(gen, population.front().fitness,
                            population.back().fitness);
    }
  };
  record(0);

  double best_seen = population.front().fitness;
  std::size_t stagnant = 0;

  // One offspring pool for the whole run: under plus selection a copy of
  // the parents followed by the lambda offspring, under comma selection
  // the offspring alone. Every slot keeps its genome buffer across
  // generations, so after the reserve below no child allocates.
  const std::size_t offspring_begin =
      config_.plus_selection ? population.size() : 0;
  std::vector<Individual> pool(offspring_begin + config_.lambda);
  for (Individual& ind : pool) {
    ind.genes.reserve(population.front().genes.size());
  }
  std::vector<std::size_t> order(pool.size());

  for (std::size_t u = 0; u < config_.generations; ++u) {
    if (result.stopped_by_cancellation || cancel_requested()) {
      result.stopped_by_cancellation = true;
      break;
    }
    if (config_.time_budget_seconds > 0.0 &&
        timer.seconds() >= config_.time_budget_seconds) {
      result.stopped_by_time_budget = true;
      break;
    }

    // Reproduction: lambda mutants of uniformly chosen parents, written
    // over the genes of individuals the last selection dropped.
    const std::string origin = "gen" + std::to_string(u + 1);
    for (std::size_t j = 0; j < config_.lambda; ++j) {
      const Individual& parent = population[rng.index(population.size())];
      Individual& child = pool[offspring_begin + j];
      child.genes.assign(parent.genes.begin(), parent.genes.end());
      mutate_(child.genes, u, rng);
      child.fitness = std::numeric_limits<double>::infinity();
      child.origin = origin;
    }
    if (config_.plus_selection) {
      std::copy(population.begin(), population.end(), pool.begin());
    }
    evaluate(pool, offspring_begin, result);
    if (cancel_requested()) {
      // The engine short-circuits remaining evaluations to +inf once the
      // token trips, so this batch may be torn — discard it and keep the
      // last fully selected population as the best-so-far result.
      result.stopped_by_cancellation = true;
      break;
    }

    // Selection: the mu best by fitness, ties in pool order — exactly the
    // first mu of a stable sort — swapped into the population.
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::partial_sort(order.begin(), order.begin() + population.size(),
                      order.end(), [&](std::size_t a, std::size_t b) {
                        if (pool[a].fitness < pool[b].fitness) return true;
                        if (pool[b].fitness < pool[a].fitness) return false;
                        return a < b;
                      });
    for (std::size_t i = 0; i < population.size(); ++i) {
      std::swap(population[i], pool[order[i]]);
    }

    ++result.generations_run;
    record(u + 1);

    if (population.front().fitness < best_seen) {
      best_seen = population.front().fitness;
      stagnant = 0;
    } else {
      ++stagnant;
      if (config_.stagnation_limit > 0 &&
          stagnant >= config_.stagnation_limit) {
        result.stopped_by_stagnation = true;
        break;
      }
    }
  }

  result.best = population.front();
  result.elapsed_seconds = timer.seconds();
  return result;
}

}  // namespace ptgsched
