// EXP-M1 — micro benchmarks of the hot kernels (google-benchmark).
//
// Section VI: "The execution time of the EA is mainly determined by the
// mapping function as it evaluates the fitness of individuals." These
// benchmarks quantify exactly that: bottom levels, one fitness evaluation
// (list scheduling), one placement pass, CPA-family allocation, the
// mutation operator, and a whole EMTS generation, across graph and
// platform sizes.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/problem_instance.hpp"
#include "daggen/corpus.hpp"
#include "emts/emts.hpp"
#include "eval/evaluation_engine.hpp"
#include "heuristics/allocation_heuristic.hpp"
#include "heuristics/cpa.hpp"
#include "heuristics/delta_critical.hpp"
#include "model/execution_time.hpp"
#include "ptg/algorithms.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/mapping_kernel.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace ptgsched;

Ptg bench_graph(int tasks) {
  RandomDagParams params;
  params.num_tasks = tasks;
  params.width = 0.5;
  params.regularity = 0.5;
  params.density = 0.5;
  params.jump = 2;
  Rng rng(17);
  return make_random_ptg(params, rng);
}

void BM_BottomLevels(benchmark::State& state) {
  const Ptg g = bench_graph(static_cast<int>(state.range(0)));
  const auto topo = topological_order(g);
  std::vector<double> out;
  const auto time = [&g](TaskId v) { return g.task(v).flops * 1e-12; };
  for (auto _ : state) {
    bottom_levels_into(g, topo, time, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_BottomLevels)->Arg(20)->Arg(100)->Arg(500);

// One allocation evaluated over and over: its passes run on warm caches
// and perfectly predicted branches, so it reads about 2.6-3x faster per
// pass than the varied children an EMTS run evaluates, which
// BM_FitnessMutantStream below replays (medians on a 4-vCPU Xeon VM: 5.7
// vs 14.7 us with the old sorted-window availability, 3.8 vs 11.5 us with
// the run-length lists).
void BM_FitnessEvaluation(benchmark::State& state) {
  const Ptg g = bench_graph(static_cast<int>(state.range(0)));
  const Cluster cluster("c", static_cast<int>(state.range(1)), 3.1);
  const SyntheticModel model;
  ListScheduler sched(g, cluster, model);
  Rng rng(5);
  Allocation alloc(g.num_tasks());
  for (auto& s : alloc) {
    s = static_cast<int>(rng.uniform_int(1, cluster.num_processors()));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.makespan(alloc));
  }
}
BENCHMARK(BM_FitnessEvaluation)
    ->Args({20, 20})
    ->Args({100, 20})
    ->Args({100, 120})
    ->Args({500, 120});

/// Forwards to an engine and records every offspring batch's genes.
class RecordingEvaluator final : public BatchEvaluator {
 public:
  RecordingEvaluator(EvaluationEngine& engine, std::vector<Allocation>& out)
      : engine_(engine), out_(out) {}
  void evaluate_batch(std::vector<Individual>& pool,
                      std::size_t begin) override {
    for (std::size_t i = begin; i < pool.size(); ++i) {
      out_.push_back(pool[i].genes);
    }
    engine_.evaluate_batch(pool, begin);
  }
  void on_selection(std::size_t generation, double best,
                    double worst) override {
    engine_.on_selection(generation, best, worst);
  }

 private:
  EvaluationEngine& engine_;
  std::vector<Allocation>& out_;
};

// Full (unbounded) fitness passes over the children an EMTS10 run
// evaluates, replayed in the order the run produced them: the seeds'
// mutants, generation by generation, on a 100-task irregular PTG on
// Grelon under Model 2. A diagnostic of the kernel on varied allocations;
// the end-to-end cost of an EMTS call is perfbench's to measure.
void BM_FitnessMutantStream(benchmark::State& state) {
  const auto instance = ProblemInstance::create(
      std::make_shared<const Ptg>(irregular_corpus(100, 1, 2011).front()),
      make_model("model2"), std::make_shared<const Cluster>(grelon()));
  const EmtsConfig emts = emts10_config();
  std::vector<Individual> seeds;
  for (const char* name : {"mcpa", "hcpa"}) {
    Individual ind;
    ind.genes = make_heuristic(name)->allocate(*instance);
    seeds.push_back(std::move(ind));
  }
  Individual delta;
  delta.genes = DeltaCriticalAllocation(emts.delta).allocate(*instance);
  seeds.push_back(std::move(delta));

  std::vector<Allocation> children;
  {
    EvaluationEngine engine(instance);
    RecordingEvaluator recorder(engine, children);
    EsConfig cfg;
    cfg.mu = emts.mu;
    cfg.lambda = emts.lambda;
    cfg.generations = emts.generations;
    cfg.seed = 11;
    EvolutionStrategy es(cfg, recorder,
                         Emts::make_mutator(emts.mutation, emts.fm,
                                            emts.generations,
                                            instance->num_processors()));
    benchmark::DoNotOptimize(es.run(seeds).best.fitness);
  }

  ListScheduler sched(instance);
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.makespan(children[next]));
    if (++next == children.size()) next = 0;
  }
  state.counters["children"] = static_cast<double>(children.size());
}
BENCHMARK(BM_FitnessMutantStream);

// Virtual-dispatch vs time-table fitness evaluation: identical
// MappingKernel passes, differing only in where the per-task times come from — a virtual
// ExecutionTimeModel::time call per task (the pre-ProblemInstance hot
// path) or the instance's dense V x P table. The gap is the
// devirtualization win the shared problem core buys every evaluation.
void BM_FitnessTimesSource(benchmark::State& state) {
  const bool use_table = state.range(2) != 0;
  const Ptg g = bench_graph(static_cast<int>(state.range(0)));
  const Cluster cluster("c", static_cast<int>(state.range(1)), 3.1);
  const SyntheticModel model;
  const auto instance = ProblemInstance::borrow(g, model, cluster);
  const double* table = instance->time_table().data();
  const auto stride = static_cast<std::size_t>(cluster.num_processors());

  MappingKernel core(*instance,
                     {MappingLane{cluster.num_processors(), 0}});
  Rng rng(5);
  Allocation alloc(g.num_tasks());
  for (auto& s : alloc) {
    s = static_cast<int>(rng.uniform_int(1, cluster.num_processors()));
  }
  std::vector<double> times(g.num_tasks());
  const auto place = [&](TaskId v, double data_ready) {
    MappingKernel::Placement p;
    p.lane = 0;
    p.size = static_cast<std::size_t>(alloc[v]);
    p.start = core.earliest_start(0, p.size, data_ready);
    p.finish = p.start + times[v];
    return p;
  };
  const double inf = std::numeric_limits<double>::infinity();
  for (auto _ : state) {
    if (use_table) {
      for (TaskId v = 0; v < g.num_tasks(); ++v) {
        times[v] = table[v * stride + static_cast<std::size_t>(alloc[v]) - 1];
      }
    } else {
      for (TaskId v = 0; v < g.num_tasks(); ++v) {
        times[v] = model.time(g.task(v), alloc[v], cluster);
      }
    }
    benchmark::DoNotOptimize(core.run(
        times, ProcessorSelection::EarliestAvailable, inf, nullptr, place));
  }
}
BENCHMARK(BM_FitnessTimesSource)
    ->Args({100, 120, 0})   // virtual dispatch
    ->Args({100, 120, 1})   // time table
    ->Args({500, 120, 0})
    ->Args({500, 120, 1});

void BM_CpaAllocation(benchmark::State& state) {
  const Ptg g = bench_graph(static_cast<int>(state.range(0)));
  const Cluster cluster = grelon();
  const AmdahlModel model;
  const CpaAllocation cpa;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cpa.allocate(g, model, cluster));
  }
}
BENCHMARK(BM_CpaAllocation)->Arg(20)->Arg(100);

void BM_McpaAllocation(benchmark::State& state) {
  const Ptg g = bench_graph(static_cast<int>(state.range(0)));
  const Cluster cluster = grelon();
  const AmdahlModel model;
  const McpaAllocation mcpa;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mcpa.allocate(g, model, cluster));
  }
}
BENCHMARK(BM_McpaAllocation)->Arg(20)->Arg(100);

// One placement pass (the final mapping of an EMTS call) of a 100-task
// graph's MCPA allocation on Grelon under Model 2; arg 0 = policy
// (0 EarliestAvailable, 1 BestFit).
void BM_BuildSchedule(benchmark::State& state) {
  const Ptg g = bench_graph(100);
  const Cluster cluster = grelon();
  const SyntheticModel model;
  ListSchedulerOptions opts;
  opts.selection = state.range(0) == 0 ? ProcessorSelection::EarliestAvailable
                                       : ProcessorSelection::BestFit;
  ListScheduler sched(g, cluster, model, opts);
  const Allocation alloc = McpaAllocation().allocate(g, model, cluster);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.build_schedule(alloc));
  }
}
BENCHMARK(BM_BuildSchedule)->Arg(0)->Arg(1);

void BM_MutationOperator(benchmark::State& state) {
  MutationParams params;
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sample_allocation_delta(params, rng));
  }
}
BENCHMARK(BM_MutationOperator);

void BM_MutateIndividual(benchmark::State& state) {
  const auto V = static_cast<std::size_t>(state.range(0));
  const MutateFn mutate = Emts::make_mutator(MutationParams{}, 0.33, 5, 120);
  Rng rng(4);
  const Allocation parent(V, 8);
  Allocation child;
  for (auto _ : state) {
    child.assign(parent.begin(), parent.end());
    mutate(child, 0, rng);
    benchmark::DoNotOptimize(child.data());
  }
}
BENCHMARK(BM_MutateIndividual)->Arg(20)->Arg(100);

void BM_EmtsFull(benchmark::State& state) {
  const Ptg g = bench_graph(static_cast<int>(state.range(0)));
  const Cluster cluster = grelon();
  const SyntheticModel model;
  EmtsConfig cfg = emts5_config();
  cfg.seed = 11;
  const Emts emts(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(emts.schedule(g, model, cluster).makespan);
  }
}
BENCHMARK(BM_EmtsFull)->Arg(20)->Arg(100)->Unit(benchmark::kMillisecond);

// Per-item dispatch: one queue entry (and one lock round-trip) per index.
void BM_ParallelForPerItem(benchmark::State& state) {
  ThreadPool pool(3);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::atomic<long long> sink{0};
  for (auto _ : state) {
    pool.parallel_for(n, [&](std::size_t i) {
      sink.fetch_add(static_cast<long long>(i), std::memory_order_relaxed);
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ParallelForPerItem)->Arg(100)->Arg(1000);

// Blocked dispatch: one queue entry per helper, blocks claimed atomically.
void BM_ParallelForBlocked(benchmark::State& state) {
  ThreadPool pool(3);
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t grain = std::max<std::size_t>(1, n / 16);
  std::atomic<long long> sink{0};
  for (auto _ : state) {
    pool.parallel_for_blocked(n, grain,
                              [&](std::size_t lo, std::size_t hi, std::size_t) {
                                long long s = 0;
                                for (std::size_t i = lo; i < hi; ++i) {
                                  s += static_cast<long long>(i);
                                }
                                sink.fetch_add(s, std::memory_order_relaxed);
                              });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ParallelForBlocked)->Arg(100)->Arg(1000);

// One EMTS-10-sized generation through the persistent evaluation engine.
void BM_EngineBatch(benchmark::State& state) {
  const Ptg g = bench_graph(100);
  const Cluster cluster = grelon();
  const SyntheticModel model;
  EvalEngineConfig cfg;
  cfg.threads = static_cast<std::size_t>(state.range(0));
  EvaluationEngine engine(g, model, cluster, {}, cfg);
  const MutateFn mutate =
      Emts::make_mutator(MutationParams{}, 0.33, 10, cluster.num_processors());
  const Allocation base(g.num_tasks(), 4);
  Rng rng(9);
  std::vector<Individual> batch(100);
  for (auto& ind : batch) {
    ind.genes = base;
    mutate(ind.genes, 0, rng);
  }
  for (auto _ : state) {
    auto pool = batch;
    engine.evaluate_batch(pool, 0);
    benchmark::DoNotOptimize(pool.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_EngineBatch)->Arg(1)->Arg(4)->Arg(8);

void BM_CorpusGeneration(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        irregular_corpus(100, static_cast<std::size_t>(state.range(0)), 7));
  }
}
BENCHMARK(BM_CorpusGeneration)->Arg(10)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom entry point instead of benchmark_main: `--json PATH` is the
// repo-wide bench convention and maps onto google-benchmark's
// out/out_format flag pair.
int main(int argc, char** argv) {
  std::vector<std::string> args;
  std::string json_path;
  for (int i = 0; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--json" && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    args.emplace_back(a);
  }
  if (!json_path.empty()) {
    args.push_back("--benchmark_out=" + json_path);
    args.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> cargv;
  cargv.reserve(args.size());
  for (auto& s : args) cargv.push_back(s.data());
  int cargc = static_cast<int>(cargv.size());
  benchmark::Initialize(&cargc, cargv.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
