#pragma once
// The traced EMTS call: Emts::schedule re-driven from the benchmark's own
// code through the library's public per-layer entry points (heuristic
// allocate(), EvaluationEngine::evaluate_one / build_schedule,
// EvolutionStrategy with a forwarding BatchEvaluator, validate_schedule),
// timing each. The program itself is not instrumented; the traced call's
// result must equal Emts::schedule's bit for bit.

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Wall time per layer of one traced call [ms], plus its engine counters.
struct LayerTimes {
  double engine_build = 0.0;  ///< EvaluationEngine construction.
  double mcpa = 0.0;          ///< Seed heuristics' allocate().
  double hcpa = 0.0;
  double delta = 0.0;
  double seed_eval = 0.0;     ///< evaluate_one on each seed.
  double batch = 0.0;         ///< evaluate_batch inside the ES.
  double es_self = 0.0;       ///< EvolutionStrategy::run minus batch.
  double final_map = 0.0;     ///< build_schedule of the best allocation.
  double validate = 0.0;      ///< validate_schedule (outside the call).
  double total = 0.0;         ///< The whole traced call (not validate).
  ptgsched::EvalStats stats;

  /// Sum of the layers' self times that make up `total`.
  [[nodiscard]] double accounted() const {
    return engine_build + mcpa + hcpa + delta + seed_eval + batch + es_self +
           final_map;
  }
  void add(const LayerTimes& o);
};

/// Emts(cfg).schedule(instance), decomposed and timed. `cfg` must use the
/// default seed sources (mcpa, hcpa, delta) and no time budget, which is
/// what every workload here runs.
ptgsched::EmtsResult traced_schedule(
    const std::shared_ptr<const ptgsched::ProblemInstance>& instance,
    const ptgsched::EmtsConfig& cfg, LayerTimes& times);

/// Accumulates traced-vs-untraced pairs of the same calls and reports the
/// core/heuristics/eval/ea/sched/trace per-layer metrics.
class LayerAccumulator {
 public:
  /// One traced call and the untraced call of the same inputs. Checks
  /// bit-identity (gate failure otherwise) and the self-time accounting.
  void add_pair(const ptgsched::EmtsResult& untraced, double untraced_ms,
                const ptgsched::EmtsResult& traced, const LayerTimes& times,
                Gate& gate);
  void add_instance_build(double ms) { instance_build_ms_.push_back(ms); }
  /// Reports the layer metrics and gates the self-time accounting.
  void report(Report& report, Gate& gate) const;

  /// Largest share of a traced call's wall time its layer self times may
  /// leave unaccounted (the glue between the public calls).
  static constexpr double kAccountingTolerance = 0.05;

 private:
  std::size_t pairs_ = 0;
  LayerTimes sum_;
  double untraced_ms_ = 0.0;
  double worst_unaccounted_ = 0.0;
  std::vector<double> instance_build_ms_;
};

}  // namespace perfbench
