// EXP-M2 — evaluation-engine throughput on EMTS-10-sized generations.
//
// The paper's Section VI: "The execution time of the EA is mainly
// determined by the mapping function as it evaluates the fitness of
// individuals." This bench measures fitness evaluations per second for
// lambda-sized batches through the persistent EvaluationEngine (pool
// created once, dynamic blocked work distribution, SoA MappingKernel):
//
//   engine  — memo off: every individual is one full list-scheduling pass;
//   +memo   — the same engine with the allocation-memoization cache on
//             (batches contain duplicate mutants, as real EMTS runs do).
//
// Batches are generated once with the real EMTS mutation operator from an
// MCPA seed, so every lane evaluates the identical individuals, and the
// exact fitness sums of all lanes and thread counts must agree bit for
// bit (a mismatch exits nonzero).
//
// Heterogeneous lane (the same batches reinterpreted as processor
// mappings on a structurally heterogeneous uniform-speed twin of the
// platform — every speed 1.0, every link cost 0.0, so the kernel runs its
// heterogeneous machinery on identical arithmetic): the engine lane at
// one thread, plus HEFT/PEFT baseline makespans on a genuinely
// heterogeneous variant.
//
// `--json PATH` writes the whole table as a machine-readable report;
// `--max-hetero-overhead X` fails the run when the heterogeneous engine
// lane costs more than X times the homogeneous one per evaluation (the
// perf_smoke_hetero guard).

#include <algorithm>
#include <cstdio>
#include <limits>

#include "daggen/corpus.hpp"
#include "emts/emts.hpp"
#include "eval/evaluation_engine.hpp"
#include "heuristics/allocation_heuristic.hpp"
#include "sched/list_scheduler.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
#include "support/timer.hpp"

using namespace ptgsched;

namespace {

struct LaneRun {
  double seconds = 0.0;
  double fitness_sum = 0.0;  ///< Exact sum over all fitnesses.
};

LaneRun engine_run(const std::shared_ptr<const ProblemInstance>& instance,
                   const std::vector<std::vector<Individual>>& batches,
                   std::size_t threads, bool memoize) {
  EvalEngineConfig cfg;
  cfg.threads = threads;
  cfg.memoize = memoize;
  EvaluationEngine engine(instance, {}, cfg);
  LaneRun run;
  WallTimer timer;
  for (const auto& batch : batches) {
    auto pool = batch;
    engine.evaluate_batch(pool, 0);
    for (const auto& ind : pool) run.fitness_sum += ind.fitness;
  }
  run.seconds = timer.seconds();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("eval_throughput",
                "EXP-M2: fitness evaluations/second through the persistent "
                "EvaluationEngine, with and without the memo cache, plus "
                "the heterogeneous-kernel overhead.");
  cli.add_option("tasks", "Tasks per PTG", "100");
  cli.add_option("lambda", "Individuals per batch (EMTS-10: 100)", "100");
  cli.add_option("batches", "Batches (generations) per run", "10");
  cli.add_option("reps", "Repetitions; best run is reported", "3");
  cli.add_option("max-threads", "Sweep thread counts 1,2,4,... up to this",
                 "8");
  cli.add_option("seed", "Base seed", "42");
  cli.add_option("json", "Write a machine-readable report to this path", "");
  cli.add_option("max-hetero-overhead",
                 "Fail if the 1-thread heterogeneous engine lane costs more "
                 "than this many times the homogeneous engine lane per "
                 "evaluation (0 = off)",
                 "0");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const int tasks = static_cast<int>(cli.get_int("tasks"));
    const auto lambda = static_cast<std::size_t>(cli.get_int("lambda"));
    const auto batches_n = static_cast<std::size_t>(cli.get_int("batches"));
    const auto reps = static_cast<std::size_t>(cli.get_int("reps"));
    const auto max_threads =
        static_cast<std::size_t>(cli.get_int("max-threads"));
    const std::uint64_t seed = cli.get_u64("seed");
    const std::string json_path = cli.get("json");
    const double max_hetero_overhead = cli.get_double("max-hetero-overhead");

    const Ptg g = irregular_corpus(tasks, 1, seed).front();
    const Cluster cluster = grelon();
    const SyntheticModel model;
    const int P = cluster.num_processors();
    // The engine lanes share one problem core, as the EMTS driver does.
    const auto instance = ProblemInstance::borrow(g, model, cluster);

    // EMTS-10-shaped batches: mutants of the MCPA seed under the paper's
    // mutation operator (duplicates arise naturally, as in a real run).
    const Allocation base = make_heuristic("mcpa")->allocate(g, model, cluster);
    const MutateFn mutate = Emts::make_mutator(MutationParams{}, 0.33, 10, P);
    Rng rng(derive_seed(seed, 0xBEEFull));
    std::vector<std::vector<Individual>> batches(batches_n);
    for (std::size_t b = 0; b < batches_n; ++b) {
      batches[b].resize(lambda);
      for (auto& ind : batches[b]) {
        ind.genes = base;
        mutate(ind.genes, std::min<std::size_t>(b, 9), rng);
      }
    }
    const double total =
        static_cast<double>(lambda) * static_cast<double>(batches_n);

    std::printf("# EXP-M2: %zu batches x lambda=%zu, %d-task irregular PTG "
                "on %s (%d procs), best of %zu reps\n",
                batches_n, lambda, tasks, cluster.name().c_str(), P, reps);
    std::vector<std::vector<std::string>> table;
    table.push_back({"threads", "engine ev/s", "engine+memo ev/s"});
    JsonArray rows;
    double engine_1t_seconds = 0.0;
    double expected_sum = 0.0;  // the first run's fitness sum
    bool have_sum = false;
    const auto check_sum = [&](const LaneRun& run, const char* lane,
                               std::size_t t) {
      if (!have_sum) {
        expected_sum = run.fitness_sum;
        have_sum = true;
        return true;
      }
      if (run.fitness_sum == expected_sum) return true;
      std::fprintf(stderr,
                   "eval_throughput: %s lane at %zu threads sums to %.17g, "
                   "want %.17g\n",
                   lane, t, run.fitness_sum, expected_sum);
      return false;
    };
    for (std::size_t t = 1; t <= max_threads; t *= 2) {
      double engine_best = std::numeric_limits<double>::infinity();
      double memo_best = std::numeric_limits<double>::infinity();
      for (std::size_t r = 0; r < reps; ++r) {
        const LaneRun plain = engine_run(instance, batches, t, false);
        const LaneRun memo = engine_run(instance, batches, t, true);
        if (!check_sum(plain, "engine", t) || !check_sum(memo, "+memo", t)) {
          return 1;
        }
        engine_best = std::min(engine_best, plain.seconds);
        memo_best = std::min(memo_best, memo.seconds);
      }
      if (t == 1) engine_1t_seconds = engine_best;
      table.push_back({std::to_string(t),
                       strfmt("%.0f", total / engine_best),
                       strfmt("%.0f", total / memo_best)});
      JsonObject row;
      row.emplace("threads", Json(static_cast<double>(t)));
      row.emplace("engine_evps", Json(total / engine_best));
      row.emplace("engine_memo_evps", Json(total / memo_best));
      rows.push_back(Json(std::move(row)));
    }
    std::fputs(render_table(table).c_str(), stdout);

    // Heterogeneous lane, 1 thread: the SAME batches reinterpreted as
    // processor mappings (genes are in [1, P] either way) on the
    // uniform-speed structurally-heterogeneous twin of the platform, so
    // the per-eval cost ratio isolates the heterogeneous kernel machinery
    // (P one-processor lanes, per-processor table, comm context) from any
    // workload change.
    const Cluster hetero_cluster = degenerate_hetero_variant(cluster);
    const auto hetero_instance =
        ProblemInstance::borrow(g, model, hetero_cluster);
    double hetero_best = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < reps; ++r) {
      hetero_best = std::min(
          hetero_best, engine_run(hetero_instance, batches, 1, false).seconds);
    }
    const double hetero_overhead = hetero_best / engine_1t_seconds;
    std::vector<std::vector<std::string>> hetero_table;
    hetero_table.push_back({"lane", "hetero engine ev/s", "overhead"});
    hetero_table.push_back({"1 thread", strfmt("%.0f", total / hetero_best),
                            strfmt("%.2fx", hetero_overhead)});
    std::fputs(render_table(hetero_table).c_str(), stdout);
    std::puts("# heterogeneous engine lane on the uniform-speed structural-"
              "hetero twin; overhead = hetero seconds / homogeneous "
              "seconds at 1 thread.");
    JsonObject hetero_row;
    hetero_row.emplace("hetero_engine_evps", Json(total / hetero_best));
    hetero_row.emplace("hetero_overhead", Json(hetero_overhead));

    // HEFT/PEFT baseline makespans on a genuinely heterogeneous variant
    // (cycled speeds, uniform link costs): the reference points the
    // heterogeneous campaign axis quotes.
    const Cluster baseline_cluster = heterogeneous_variant(cluster, 0.25);
    const auto baseline_instance =
        ProblemInstance::borrow(g, model, baseline_cluster);
    ListScheduler baseline_sched(baseline_instance);
    JsonObject baseline_row;
    baseline_row.emplace("platform", Json(baseline_cluster.name()));
    std::vector<std::vector<std::string>> baseline_table;
    baseline_table.push_back({"baseline", "makespan"});
    for (const char* name : {"heft", "peft", "one"}) {
      const Allocation alloc =
          make_heuristic(name)->allocate(*baseline_instance);
      const double ms = baseline_sched.makespan(alloc);
      baseline_table.push_back({name, strfmt("%.4f", ms)});
      baseline_row.emplace(std::string(name) + "_makespan", Json(ms));
    }
    std::fputs(render_table(baseline_table).c_str(), stdout);
    std::printf("# list-baseline makespans on %s (%d-task instance).\n",
                baseline_cluster.name().c_str(), tasks);

    if (!json_path.empty()) {
      JsonObject doc;
      doc.emplace("bench", Json("eval_throughput"));
      JsonObject config;
      config.emplace("tasks", Json(static_cast<double>(tasks)));
      config.emplace("lambda", Json(static_cast<double>(lambda)));
      config.emplace("batches", Json(static_cast<double>(batches_n)));
      config.emplace("reps", Json(static_cast<double>(reps)));
      config.emplace("seed", Json(static_cast<double>(seed)));
      config.emplace("cluster", Json(cluster.name()));
      doc.emplace("config", Json(std::move(config)));
      doc.emplace("rows", Json(std::move(rows)));
      doc.emplace("hetero", Json(std::move(hetero_row)));
      doc.emplace("hetero_baselines", Json(std::move(baseline_row)));
      Json(std::move(doc)).write_file(json_path);
      std::printf("# wrote %s\n", json_path.c_str());
    }

    if (max_hetero_overhead > 0.0 && hetero_overhead > max_hetero_overhead) {
      std::fprintf(stderr,
                   "eval_throughput: heterogeneous engine lane costs %.2fx "
                   "the homogeneous engine lane per evaluation, above the "
                   "allowed %.2fx\n",
                   hetero_overhead, max_hetero_overhead);
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "eval_throughput: %s\n", e.what());
    return 1;
  }
}
