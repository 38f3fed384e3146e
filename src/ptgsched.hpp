#pragma once
// Umbrella header: the full public API of ptgsched.
//
// Typical usage:
//
//   #include <ptgsched.hpp>
//   using namespace ptgsched;
//
//   Rng rng(42);
//   Ptg graph = make_fft_ptg(16, rng);      // or load_ptg("workflow.json")
//   Cluster cluster = grelon();             // 120 x 3.1 GFLOPS
//   auto model = make_model("model2");      // non-monotonic synthetic model
//
//   Emts emts(emts5_config());
//   EmtsResult result = emts.schedule(graph, *model, cluster);
//   validate_schedule(result.schedule, graph, result.best_allocation,
//                     *model, cluster);
//
// Individual headers can be included directly for faster builds.

#include "core/problem_instance.hpp"
#include "daggen/application_graphs.hpp"
#include "daggen/complexity.hpp"
#include "daggen/corpus.hpp"
#include "daggen/random_dag.hpp"
#include "ea/evolution.hpp"
#include "ea/local_search.hpp"
#include "emts/emts.hpp"
#include "emts/mutation.hpp"
#include "eval/evaluation_engine.hpp"
#include "exp/campaign.hpp"
#include "exp/experiment.hpp"
#include "exp/robustness.hpp"
#include "heuristics/allocation_heuristic.hpp"
#include "heuristics/bicpa.hpp"
#include "heuristics/cpa.hpp"
#include "heuristics/cpr.hpp"
#include "heuristics/delta_critical.hpp"
#include "heuristics/hcpa_multicluster.hpp"
#include "model/execution_time.hpp"
#include "model/overhead.hpp"
#include "platform/cluster.hpp"
#include "platform/multi_cluster.hpp"
#include "ptg/algorithms.hpp"
#include "ptg/analysis.hpp"
#include "ptg/graph.hpp"
#include "ptg/io.hpp"
#include "sched/allocation.hpp"
#include "sched/gantt.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/lower_bounds.hpp"
#include "sched/mapping_kernel.hpp"
#include "sched/multi_cluster_scheduler.hpp"
#include "sched/schedule.hpp"
#include "sched/validate.hpp"
#include "sim/fault_model.hpp"
#include "sim/reschedule_policy.hpp"
#include "sim/simulation.hpp"
#include "support/cli.hpp"
#include "support/csv.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"
