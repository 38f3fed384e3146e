// EXP-A2 — Ablation: the mutation operator design (Section III-D).
//
// The paper argues for (1) an adaptive mutation count that decays over
// generations and (2) an asymmetric, small-step-biased magnitude
// distribution. This ablation drives the *generic* ES (ea/evolution) with
// four operators on the same seeds/fitness and compares final makespans:
//   paper      — Eq. 1 operator + adaptive count (EMTS's operator)
//   uniform    — delta uniform in [-10, 10] \ {0} + adaptive count
//   symmetric  — Eq. 1 magnitudes but a = 0.5 (no stretch bias)
//   fixed      — Eq. 1 operator but constant mutation count (no decay)

#include <cstdio>

#include "daggen/corpus.hpp"
#include "emts/emts.hpp"
#include "heuristics/allocation_heuristic.hpp"
#include "sched/list_scheduler.hpp"
#include "support/cli.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"

using namespace ptgsched;

namespace {

MutateFn uniform_mutator(double fm, std::size_t U, int P) {
  return [fm, U, P](Allocation& child, std::size_t u, Rng& rng) {
    const std::size_t m =
        mutation_count(std::min(u, U - 1), U, fm, child.size());
    for (const std::size_t pos : rng.sample_indices(child.size(), m)) {
      int delta = 0;
      while (delta == 0) {
        delta = static_cast<int>(rng.uniform_int(-10, 10));
      }
      child[pos] = static_cast<int>(
          std::clamp<long long>(child[pos] + delta, 1, P));
    }
  };
}

MutateFn fixed_count_mutator(MutationParams params, double fm, int P) {
  return [params, fm, P](Allocation& child, std::size_t, Rng& rng) {
    const auto m = std::max<std::size_t>(
        1, static_cast<std::size_t>(fm * static_cast<double>(child.size())));
    for (const std::size_t pos : rng.sample_indices(child.size(), m)) {
      const int delta = sample_allocation_delta(params, rng);
      child[pos] = static_cast<int>(
          std::clamp<long long>(child[pos] + delta, 1, P));
    }
  };
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("abl_mutation",
                "Ablation EXP-A2: mutation operator variants in the ES.");
  cli.add_option("instances", "Instances per class", "12");
  cli.add_option("seed", "Base seed", "42");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const auto n = static_cast<std::size_t>(cli.get_int("instances"));
    const std::uint64_t seed = cli.get_u64("seed");
    const SyntheticModel model;
    const Cluster cluster = grelon();
    const int P = cluster.num_processors();
    constexpr std::size_t U = 5;
    constexpr double fm = 0.33;

    std::puts("# EXP-A2: mutation ablation, (5+25)-ES x 5 generations on "
              "grelon, Model 2");
    std::puts("# mean makespan normalized to the paper operator (lower is "
              "better)");

    std::vector<std::vector<std::string>> table;
    table.push_back({"class", "paper", "uniform", "symmetric", "fixed-count"});
    for (const std::string cls : {"layered", "irregular"}) {
      const auto graphs = corpus_by_name(cls, 100, n, seed);
      std::map<std::string, RunningStats> norm;
      for (std::size_t i = 0; i < graphs.size(); ++i) {
        const Ptg& g = graphs[i];
        // Shared seeds: the paper's starting solutions.
        std::vector<Individual> seeds;
        for (const char* h : {"mcpa", "hcpa", "delta"}) {
          Individual ind;
          ind.genes = make_heuristic(h)->allocate(g, model, cluster);
          ind.origin = h;
          seeds.push_back(std::move(ind));
        }
        ListScheduler sched(g, cluster, model);
        const FitnessFn fitness = [&sched](const Allocation& a, std::size_t) {
          return sched.makespan(a);
        };

        MutationParams paper_params;  // a = 0.2, sigma = 5
        MutationParams symmetric = paper_params;
        symmetric.shrink_probability = 0.5;

        const std::map<std::string, MutateFn> operators = {
            {"paper", Emts::make_mutator(paper_params, fm, U, P)},
            {"uniform", uniform_mutator(fm, U, P)},
            {"symmetric", Emts::make_mutator(symmetric, fm, U, P)},
            {"fixed", fixed_count_mutator(paper_params, fm, P)},
        };

        std::map<std::string, double> makespans;
        for (const auto& [name, mutate] : operators) {
          EsConfig cfg;
          cfg.mu = 5;
          cfg.lambda = 25;
          cfg.generations = U;
          cfg.seed = derive_seed(seed, i);
          EvolutionStrategy es(cfg, fitness, mutate);
          makespans[name] = es.run(seeds).best.fitness;
        }
        const double ref = makespans["paper"];
        for (const auto& [name, m] : makespans) norm[name].add(m / ref);
      }
      table.push_back({cls, strfmt("%.4f", norm["paper"].mean()),
                       strfmt("%.4f", norm["uniform"].mean()),
                       strfmt("%.4f", norm["symmetric"].mean()),
                       strfmt("%.4f", norm["fixed"].mean())});
    }
    std::fputs(render_table(table).c_str(), stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "abl_mutation: %s\n", e.what());
    return 1;
  }
}
