#include "layers.hpp"

#include <cstdio>
#include <stdexcept>

#include "ea/evolution.hpp"
#include "eval/evaluation_engine.hpp"
#include "heuristics/allocation_heuristic.hpp"
#include "heuristics/delta_critical.hpp"
#include "sched/validate.hpp"

namespace perfbench {

using namespace ptgsched;

namespace {

/// Forwards to the engine and times every evaluate_batch call.
class TimingEvaluator final : public BatchEvaluator {
 public:
  explicit TimingEvaluator(EvaluationEngine& engine) : engine_(engine) {}

  void evaluate_batch(std::vector<Individual>& pool,
                      std::size_t begin) override {
    const auto t0 = Clock::now();
    engine_.evaluate_batch(pool, begin);
    batch_ms += ms_between(t0, Clock::now());
  }

  void on_selection(std::size_t generation, double best,
                    double worst) override {
    engine_.on_selection(generation, best, worst);
  }

  double batch_ms = 0.0;

 private:
  EvaluationEngine& engine_;
};

}  // namespace

void LayerTimes::add(const LayerTimes& o) {
  engine_build += o.engine_build;
  mcpa += o.mcpa;
  hcpa += o.hcpa;
  delta += o.delta;
  seed_eval += o.seed_eval;
  batch += o.batch;
  es_self += o.es_self;
  final_map += o.final_map;
  validate += o.validate;
  total += o.total;
  stats.evaluations += o.stats.evaluations;
  stats.scheduled += o.stats.scheduled;
  stats.cache_hits += o.stats.cache_hits;
  stats.rejections += o.stats.rejections;
  stats.trace_builds += o.stats.trace_builds;
  stats.delta_scheduled += o.stats.delta_scheduled;
}

EmtsResult traced_schedule(const std::shared_ptr<const ProblemInstance>& instance,
                           const EmtsConfig& cfg, LayerTimes& times) {
  if (cfg.seed_heuristics != std::vector<std::string>{"mcpa", "hcpa"} ||
      !cfg.use_delta_seed || cfg.use_random_seed ||
      cfg.time_budget_seconds != 0.0) {
    throw std::invalid_argument("traced_schedule: unsupported EmtsConfig");
  }
  const auto t_start = Clock::now();
  EvalEngineConfig engine_cfg;
  engine_cfg.threads = cfg.threads;
  engine_cfg.use_rejection = cfg.use_rejection;
  engine_cfg.memoize = cfg.memoize;
  engine_cfg.kernel = cfg.kernel;
  engine_cfg.cancel = cfg.cancel;
  EvaluationEngine engine(instance, cfg.mapping, engine_cfg);
  auto t = Clock::now();
  times.engine_build = ms_between(t_start, t);

  EmtsResult result;
  std::vector<Individual> seeds;
  const auto add_seed = [&](const std::string& label, Allocation alloc,
                            double& heuristic_ms) {
    const auto t_eval = Clock::now();
    heuristic_ms = ms_between(t, t_eval);
    SeedInfo info;
    info.heuristic = label;
    info.makespan = engine.evaluate_one(alloc);
    t = Clock::now();
    times.seed_eval += ms_between(t_eval, t);
    info.allocation = alloc;
    result.seeds.push_back(info);
    Individual ind;
    ind.genes = std::move(alloc);
    ind.origin = label;
    seeds.push_back(std::move(ind));
  };
  add_seed("mcpa", make_heuristic("mcpa")->allocate(*instance), times.mcpa);
  add_seed("hcpa", make_heuristic("hcpa")->allocate(*instance), times.hcpa);
  add_seed("delta", DeltaCriticalAllocation(cfg.delta).allocate(*instance),
           times.delta);

  EsConfig es_cfg;
  es_cfg.mu = cfg.mu;
  es_cfg.lambda = cfg.lambda;
  es_cfg.generations = cfg.generations;
  es_cfg.plus_selection = cfg.plus_selection;
  es_cfg.stagnation_limit = cfg.stagnation_limit;
  es_cfg.seed = cfg.seed;
  es_cfg.cancel = cfg.cancel;
  const int procs = instance->num_processors();
  TimingEvaluator evaluator(engine);
  EvolutionStrategy es(es_cfg, evaluator,
                       Emts::make_mutator(cfg.mutation, cfg.fm,
                                          cfg.generations, procs));
  es.set_tracked_mutator(Emts::make_tracked_mutator(
      cfg.mutation, cfg.fm, cfg.generations, procs));
  const auto t_es = Clock::now();
  result.es = es.run(seeds);
  t = Clock::now();
  times.batch = evaluator.batch_ms;
  times.es_self = ms_between(t_es, t) - evaluator.batch_ms;
  times.stats = engine.stats();

  result.best_allocation = result.es.best.genes;
  result.schedule = engine.build_schedule(result.best_allocation);
  result.makespan = result.schedule.makespan();
  const auto t_end = Clock::now();
  times.final_map = ms_between(t, t_end);
  times.total = ms_between(t_start, t_end);
  result.eval_stats = times.stats;

  validate_schedule(result.schedule, instance->graph(),
                    result.best_allocation, instance->model(),
                    instance->cluster());
  times.validate = ms_between(t_end, Clock::now());
  return result;
}

void LayerAccumulator::add_pair(const EmtsResult& untraced,
                                double untraced_ms, const EmtsResult& traced,
                                const LayerTimes& times, Gate& gate) {
  gate.attempt();
  if (traced.makespan != untraced.makespan ||
      traced.best_allocation != untraced.best_allocation) {
    gate.fail("traced call differs from the untraced call");
  }
  ++pairs_;
  sum_.add(times);
  untraced_ms_ += untraced_ms;
  if (times.total > 0.0) {
    worst_unaccounted_ = std::max(
        worst_unaccounted_, 1.0 - times.accounted() / times.total);
  }
}

void LayerAccumulator::report(Report& report, Gate& gate) const {
  const double n = pairs_ > 0 ? static_cast<double>(pairs_) : 1.0;
  const auto per_call = [&](double v) { return v / n; };
  report.set("core.instance_build_ms", mean(instance_build_ms_), "ms");
  report.set("heuristics.mcpa_ms", per_call(sum_.mcpa), "ms");
  report.set("heuristics.hcpa_ms", per_call(sum_.hcpa), "ms");
  report.set("heuristics.delta_ms", per_call(sum_.delta), "ms");
  report.set("eval.engine_build_ms", per_call(sum_.engine_build), "ms");
  report.set("eval.seed_eval_ms", per_call(sum_.seed_eval), "ms");
  report.set("eval.batch_ms", per_call(sum_.batch), "ms");
  const double eval_ms = sum_.seed_eval + sum_.batch;
  report.set("eval.evals_per_s",
             eval_ms > 0.0 ? static_cast<double>(sum_.stats.evaluations) /
                                 (eval_ms / 1000.0)
                           : 0.0,
             "1/s");
  const double evals = static_cast<double>(sum_.stats.evaluations);
  const double scheduled = static_cast<double>(sum_.stats.scheduled);
  report.set("eval.evaluations", per_call(evals), "count");
  report.set("eval.scheduled", per_call(scheduled), "count");
  report.set("eval.cache_hit_frac",
             evals > 0.0 ? static_cast<double>(sum_.stats.cache_hits) / evals
                         : 0.0,
             "frac");
  report.set("eval.trace_builds",
             per_call(static_cast<double>(sum_.stats.trace_builds)), "count");
  report.set("eval.delta_frac",
             scheduled > 0.0
                 ? static_cast<double>(sum_.stats.delta_scheduled) / scheduled
                 : 0.0,
             "frac");
  report.set("eval.rejections",
             per_call(static_cast<double>(sum_.stats.rejections)), "count");
  report.set("ea.es_self_ms", per_call(sum_.es_self), "ms");
  report.set("sched.final_map_ms", per_call(sum_.final_map), "ms");
  report.set("sched.validate_ms", per_call(sum_.validate), "ms");
  report.set("trace.calls", static_cast<double>(pairs_), "count");
  report.set("trace.overhead_frac",
             untraced_ms_ > 0.0 ? sum_.total / untraced_ms_ - 1.0 : 0.0,
             "frac");
  report.set("trace.unaccounted_frac",
             sum_.total > 0.0 ? 1.0 - sum_.accounted() / sum_.total : 0.0,
             "frac");
  gate.check(sum_.total <= 0.0 ||
                 1.0 - sum_.accounted() / sum_.total <= kAccountingTolerance,
             "layer self times do not account for the traced calls");
  std::fprintf(stderr,
               "perfbench: traced calls %zu, worst single-call unaccounted "
               "share %.4f\n",
               pairs_, worst_unaccounted_);
}

}  // namespace perfbench
