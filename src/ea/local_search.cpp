#include "ea/local_search.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "support/timer.hpp"

namespace ptgsched {

namespace {

void check_inputs(const std::vector<Individual>& seeds,
                  const FitnessFn& fitness, const MutateFn& mutate,
                  const LocalSearchConfig& config) {
  if (seeds.empty()) throw std::invalid_argument("local search: no seeds");
  for (const auto& s : seeds) {
    if (s.genes.empty()) {
      throw std::invalid_argument("local search: empty seed genome");
    }
  }
  if (fitness == nullptr || mutate == nullptr) {
    throw std::invalid_argument("local search: fitness/mutate not callable");
  }
  if (config.max_evaluations == 0) {
    throw std::invalid_argument("local search: zero evaluation budget");
  }
  if (config.pseudo_generations == 0) {
    throw std::invalid_argument("local search: zero pseudo generations");
  }
}

// Evaluate all seeds and return the best as the starting incumbent.
Individual best_seed(const std::vector<Individual>& seeds,
                     const FitnessFn& fitness, SearchResult& result) {
  Individual best;
  for (const Individual& s : seeds) {
    Individual cand = s;
    cand.fitness = fitness(cand.genes, 0);
    ++result.evaluations;
    result.trace.push_back(
        best.genes.empty() ? cand.fitness
                           : std::min(best.fitness, cand.fitness));
    if (best.genes.empty() || cand.fitness < best.fitness) {
      best = std::move(cand);
    }
  }
  return best;
}

std::size_t pseudo_generation(std::size_t eval, std::size_t budget,
                              std::size_t generations) {
  const double progress =
      static_cast<double>(eval) / static_cast<double>(budget);
  const auto u = static_cast<std::size_t>(progress *
                                          static_cast<double>(generations));
  return std::min(u, generations - 1);
}

}  // namespace

SearchResult random_search(const std::vector<Individual>& seeds,
                           const FitnessFn& fitness, const MutateFn& mutate,
                           const LocalSearchConfig& config) {
  check_inputs(seeds, fitness, mutate, config);
  WallTimer timer;
  SearchResult result;
  Rng rng(config.seed);
  Individual start = best_seed(seeds, fitness, result);
  Individual best = start;
  while (result.evaluations < config.max_evaluations) {
    Individual cand;
    // Always mutate the *seed*, not the incumbent: pure random restarts
    // around the start point (generation 0 => maximal step size).
    cand.genes = start.genes;
    mutate(cand.genes, 0, rng);
    cand.fitness = fitness(cand.genes, 0);
    cand.origin = "random";
    ++result.evaluations;
    if (cand.fitness < best.fitness) best = cand;
    result.trace.push_back(best.fitness);
  }
  result.best = best;
  result.elapsed_seconds = timer.seconds();
  return result;
}

SearchResult hill_climb(const std::vector<Individual>& seeds,
                        const FitnessFn& fitness, const MutateFn& mutate,
                        const LocalSearchConfig& config) {
  check_inputs(seeds, fitness, mutate, config);
  WallTimer timer;
  SearchResult result;
  Rng rng(config.seed);
  Individual incumbent = best_seed(seeds, fitness, result);
  while (result.evaluations < config.max_evaluations) {
    Individual cand;
    cand.genes = incumbent.genes;
    mutate(cand.genes,
           pseudo_generation(result.evaluations, config.max_evaluations,
                             config.pseudo_generations),
           rng);
    cand.fitness = fitness(cand.genes, 0);
    cand.origin = "hillclimb";
    ++result.evaluations;
    if (cand.fitness < incumbent.fitness) incumbent = std::move(cand);
    result.trace.push_back(incumbent.fitness);
  }
  result.best = incumbent;
  result.elapsed_seconds = timer.seconds();
  return result;
}

SearchResult simulated_annealing(const std::vector<Individual>& seeds,
                                 const FitnessFn& fitness,
                                 const MutateFn& mutate,
                                 const AnnealingConfig& config) {
  check_inputs(seeds, fitness, mutate, config);
  if (!(config.initial_temperature_fraction > 0.0)) {
    throw std::invalid_argument("annealing: non-positive temperature");
  }
  if (!(config.cooling > 0.0 && config.cooling < 1.0)) {
    throw std::invalid_argument("annealing: cooling must be in (0, 1)");
  }
  WallTimer timer;
  SearchResult result;
  Rng rng(config.seed);
  Individual incumbent = best_seed(seeds, fitness, result);
  Individual best = incumbent;
  double temperature =
      config.initial_temperature_fraction * incumbent.fitness;
  while (result.evaluations < config.max_evaluations) {
    Individual cand;
    cand.genes = incumbent.genes;
    mutate(cand.genes,
           pseudo_generation(result.evaluations, config.max_evaluations,
                             config.pseudo_generations),
           rng);
    cand.fitness = fitness(cand.genes, 0);
    cand.origin = "annealing";
    ++result.evaluations;

    const double delta = cand.fitness - incumbent.fitness;
    const bool accept =
        delta <= 0.0 ||
        (temperature > 0.0 && rng.canonical() < std::exp(-delta / temperature));
    if (accept) incumbent = std::move(cand);
    if (incumbent.fitness < best.fitness) best = incumbent;
    result.trace.push_back(best.fitness);
    temperature *= config.cooling;
  }
  result.best = best;
  result.elapsed_seconds = timer.seconds();
  return result;
}

}  // namespace ptgsched
