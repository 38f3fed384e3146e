#pragma once
// Heavyweight serve requests sized by measurement, not by assumption.
//
// Several daemon tests need a request that is still running some time after
// it starts: one that parks the only worker while others queue up behind it,
// one the deadline watchdog must catch mid-run, one a SIGTERM must land in.
// How long an EMTS run takes moves with every speed-up of the library and
// with the build (a sanitizer build is several times slower), so a fixed
// task count is not a premise. heavy_spec() instead measures one in-process
// EMTS5 run of the spec — what a serve worker does for it at the emts tier:
// build the instance, then run EMTS5 on a fresh inline, memoizing engine —
// and raises the task count until that run takes at least the time asked
// for.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>

#include "core/problem_instance.hpp"
#include "daggen/corpus.hpp"
#include "emts/emts.hpp"
#include "eval/evaluation_engine.hpp"
#include "model/execution_time.hpp"
#include "platform/cluster.hpp"
#include "serve/request.hpp"

namespace ptgsched::serve {

/// Wall-clock seconds of one in-process EMTS5 run of `spec`.
inline double emts5_run_seconds(const JobSpec& spec) {
  const auto start = std::chrono::steady_clock::now();
  auto graphs = corpus_by_name(spec.cls, spec.tasks, spec.corpus_index + 1,
                               spec.seed);
  auto instance = ProblemInstance::create(
      std::make_shared<const Ptg>(std::move(graphs[spec.corpus_index])),
      make_model(spec.model),
      std::make_shared<const Cluster>(platform_by_name(spec.platform)));
  EvalEngineConfig cfg;
  cfg.memoize = true;
  EvaluationEngine engine(std::move(instance), {}, cfg);
  (void)Emts(emts5_config()).schedule(engine);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// An irregular spec whose in-process EMTS5 run takes at least
/// `min_seconds`, starting from `tasks` tasks and scaling the task count
/// by the measured shortfall (plus a quarter, at most 4x per round) until
/// one run is long enough.
inline JobSpec heavy_spec(JobSpec base, int tasks, double min_seconds) {
  constexpr int kMaxTasks = 40000;
  base.cls = "irregular";
  base.tasks = tasks;
  for (;;) {
    const double seconds = emts5_run_seconds(base);
    if (seconds >= min_seconds) return base;
    if (base.tasks >= kMaxTasks) {
      ADD_FAILURE() << "no spec up to " << kMaxTasks << " tasks runs "
                    << min_seconds << " s (last: " << seconds << " s)";
      return base;
    }
    const double scale =
        std::min(4.0, 1.25 * min_seconds / std::max(seconds, 1e-3));
    base.tasks = std::min(
        kMaxTasks,
        std::max(base.tasks + 1,
                 static_cast<int>(std::ceil(base.tasks * scale))));
  }
}

}  // namespace ptgsched::serve
