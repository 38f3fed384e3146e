// Generative differential tests: on thousands of seeded generated
// instances, the incremental CPA-family heuristics must return exactly the
// allocations of the from-scratch reference loops (reference_cpa), and the
// kernel must agree with the ReferenceMapper for both selection policies:
// its placement path emits exactly the oracle's schedules, valid under
// validate_schedule; its value path returns the oracle's makespan; and its
// bounded path, at 0.8, 1.0 and 1.2 times that makespan, returns the
// oracle's value and rejection count. The allocations are the CPA and MCPA
// results, one uniform random allocation, and a chain of EMTS-operator
// mutants — the varied allocations an EMTS run evaluates. On homogeneous
// instances a direct kernel pass also checks, before every placement, that
// each lane's free-time runs are canonical (strictly ascending times,
// positive counts summing to P).
//
// The instance space: the four corpus classes (FFT, Strassen, layered and
// irregular DAGGEN PTGs of 10-300 tasks) on the chti and grelon presets and
// their -hetero variants, under Model 1 and Model 2; plus the family a cold
// serve request draws (irregular, 50 tasks, Grelon, Model 2, a fresh corpus
// seed per batch); plus small layered PTGs with integer times, where ties
// are the rule. Every instance is a function of the test's fixed seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "../common/reference_cpa.hpp"
#include "../common/reference_mapper.hpp"
#include "../common/test_graphs.hpp"
#include "core/problem_instance.hpp"
#include "daggen/corpus.hpp"
#include "emts/emts.hpp"
#include "heuristics/bicpa.hpp"
#include "heuristics/cpa.hpp"
#include "model/execution_time.hpp"
#include "platform/cluster.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/mapping_kernel.hpp"
#include "sched/validate.hpp"
#include "support/rng.hpp"

namespace ptgsched {
namespace {

/// EMTS-operator mutants in a chain, each from the one before: what the
/// ES evaluates, generation by generation.
constexpr std::size_t kMutantChain = 8;

/// Value and bounded passes of the kernel against the oracle on `alloc`;
/// `ref` receives the oracle's makespan.
void expect_values_match(ListScheduler& sched, ReferenceMapper& oracle,
                         const Allocation& alloc, const std::string& where,
                         double& ref) {
  ref = oracle.makespan(alloc);
  ASSERT_EQ(sched.makespan(alloc), ref) << where;
  for (const double factor : {0.8, 1.0, 1.2}) {
    sched.reset_stats();
    oracle.reset_stats();
    const double bound = factor * ref;
    ASSERT_EQ(sched.makespan_bounded(alloc, bound),
              oracle.makespan_bounded(alloc, bound))
        << where << ", bound " << factor << " x makespan";
    ASSERT_EQ(sched.rejected_count(), oracle.rejected_count())
        << where << ", bound " << factor << " x makespan";
  }
}

/// A value pass driven on the kernel directly (homogeneous instances: one
/// lane, gene = width), checking before every placement that the lane's
/// runs are canonical. Returns the makespan.
double canonical_runs_pass(const ProblemInstance& pi, const Allocation& alloc,
                           ProcessorSelection policy,
                           const std::string& where) {
  const int P = pi.num_processors();
  std::vector<double> times(pi.num_tasks());
  for (TaskId v = 0; v < pi.num_tasks(); ++v) {
    times[v] = pi.time_table()[v * static_cast<std::size_t>(P) +
                               static_cast<std::size_t>(alloc[v] - 1)];
  }
  MappingKernel kernel(pi, {MappingLane{P, 0}});
  return kernel.run(
      times, policy, std::numeric_limits<double>::infinity(), nullptr,
      [&](TaskId v, double data_ready) {
        const auto runs = kernel.free_runs(0);
        std::size_t total = 0;
        for (std::size_t i = 0; i < runs.size(); ++i) {
          EXPECT_GT(runs[i].count, 0u) << where << ", task " << v;
          if (i > 0) {
            EXPECT_LT(runs[i - 1].time, runs[i].time)
                << where << ", task " << v;
          }
          total += runs[i].count;
        }
        EXPECT_EQ(total, static_cast<std::size_t>(P)) << where;
        MappingKernel::Placement p;
        p.size = static_cast<std::size_t>(alloc[v]);
        p.start = kernel.earliest_start(0, p.size, data_ready);
        p.finish = p.start + times[v];
        return p;
      });
}

/// Heuristic allocations against the oracle, then value, bounded and
/// placement passes of the kernel against the ReferenceMapper on those
/// allocations, on one random allocation and on a chain of EMTS mutants.
void expect_matches_oracles(const ProblemInstance& pi, Rng& rng) {
  const std::string where = pi.graph().name() + " on " + pi.cluster().name() +
                            " (" + std::to_string(pi.num_tasks()) + " tasks)";
  const Allocation cpa = CpaAllocation().allocate(pi);
  const Allocation mcpa = McpaAllocation().allocate(pi);
  ASSERT_EQ(cpa, reference_cpa(pi, /*level_bound=*/false)) << where;
  ASSERT_EQ(HcpaAllocation().allocate(pi), cpa) << where;
  ASSERT_EQ(mcpa, reference_cpa(pi, /*level_bound=*/true)) << where;
  ASSERT_EQ(Mcpa2Allocation().allocate(pi), reference_mcpa2(pi)) << where;
  // A coarse BiCPA sweep (four virtual sizes plus P) keeps the thousands
  // of instances affordable; every size runs the same loop.
  const int stride = std::max(1, pi.num_processors() / 4);
  ASSERT_EQ(BicpaAllocation(stride).allocate(pi),
            reference_bicpa(pi, stride))
      << where;

  std::vector<Allocation> allocs = {cpa, mcpa, Allocation(pi.num_tasks())};
  for (auto& s : allocs.back()) {
    s = static_cast<int>(rng.uniform_int(1, pi.num_processors()));
  }
  const MutateFn mutate = Emts::make_mutator(MutationParams{}, 0.33, 10,
                                             pi.num_processors());
  Allocation chain = mcpa;
  for (std::size_t u = 0; u < kMutantChain; ++u) {
    mutate(chain, u, rng);
    allocs.push_back(chain);
  }
  for (const ProcessorSelection policy :
       {ProcessorSelection::EarliestAvailable, ProcessorSelection::BestFit}) {
    ListSchedulerOptions opts;
    opts.selection = policy;
    ListScheduler sched(pi.shared_from_this(), opts);
    ReferenceMapper oracle(pi.shared_from_this(), opts);
    for (std::size_t k = 0; k < allocs.size(); ++k) {
      const Allocation& alloc = allocs[k];
      double value = 0.0;
      expect_values_match(sched, oracle, alloc, where, value);
      if (::testing::Test::HasFailure()) return;
      if (!pi.heterogeneous()) {
        ASSERT_EQ(canonical_runs_pass(pi, alloc, policy, where), value)
            << where;
        if (::testing::Test::HasFailure()) return;
      }
      // Placements: the three base allocations and the chain's last
      // mutant (the value checks above cover the whole chain).
      if (k >= 3 && k + 1 < allocs.size()) continue;
      const Schedule got = sched.build_schedule(alloc);
      const Schedule ref = oracle.build_schedule(alloc);
      ASSERT_EQ(got.makespan(), ref.makespan()) << where;
      for (TaskId v = 0; v < pi.num_tasks(); ++v) {
        ASSERT_EQ(got.placement(v).start, ref.placement(v).start) << where;
        ASSERT_EQ(got.placement(v).finish, ref.placement(v).finish) << where;
        ASSERT_EQ(got.placement(v).processors, ref.placement(v).processors)
            << where << ", task " << v;
      }
      validate_schedule(got, pi.graph(), alloc, pi.model(), pi.cluster());
    }
  }
}

/// `batches` seeded corpus batches of one class: each batch draws a task
/// count in [10, 300] (ignored by fft/strassen) and generates `per_batch`
/// consecutive corpus instances, each on a random preset platform under a
/// random model. Returns the number of instances checked.
std::size_t run_class(const std::string& cls, std::size_t batches,
                      std::size_t per_batch, std::uint64_t seed) {
  static const std::array<const char*, 4> kPlatforms = {
      "chti", "grelon", "chti-hetero", "grelon-hetero"};
  static const std::array<const char*, 2> kModels = {"model1", "model2"};
  std::size_t checked = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    Rng rng(derive_seed(seed, b));
    // Log-uniform: small graphs, where ties and single-task levels are
    // common, as often as large ones, and the run stays affordable.
    const int tasks = static_cast<int>(
        std::lround(std::exp(rng.uniform_real(std::log(10.0),
                                              std::log(300.0)))));
    for (Ptg& g : corpus_by_name(cls, tasks, per_batch, rng.engine()())) {
      const auto cluster = std::make_shared<const Cluster>(
          platform_by_name(kPlatforms[rng.index(kPlatforms.size())]));
      const auto model = make_model(kModels[rng.index(kModels.size())]);
      const auto pi = ProblemInstance::create(
          std::make_shared<const Ptg>(std::move(g)), model, cluster);
      expect_matches_oracles(*pi, rng);
      if (::testing::Test::HasFatalFailure()) return checked;
      ++checked;
    }
  }
  return checked;
}

TEST(Differential, FftInstancesMatchTheOracles) {
  EXPECT_EQ(run_class("fft", 50, 8, 0xf01), 400u);
}

TEST(Differential, StrassenInstancesMatchTheOracles) {
  EXPECT_EQ(run_class("strassen", 50, 8, 0xf02), 400u);
}

TEST(Differential, LayeredInstancesMatchTheOracles) {
  // The dense layered shapes cost the reference loops the most per task:
  // fewer of them, every configuration still covered 17 times.
  EXPECT_EQ(run_class("layered", 17, 12, 0xf03), 204u);
}

TEST(Differential, IrregularInstancesMatchTheOracles) {
  EXPECT_EQ(run_class("irregular", 12, 36, 0xf04), 432u);
}

TEST(Differential, ColdServeFamilyMatchesTheOracles) {
  // What a cold serve request schedules: irregular 50-task PTGs from a
  // fresh corpus seed, on Grelon under Model 2. Instance i of a corpus
  // depends only on (seed, i), so each batch covers all 36 shapes.
  const auto cluster =
      std::make_shared<const Cluster>(platform_by_name("grelon"));
  const auto model = make_model("model2");
  std::size_t checked = 0;
  for (std::size_t b = 0; b < 20; ++b) {
    Rng rng(derive_seed(0xc01d, b));
    for (Ptg& g : irregular_corpus(50, 36, rng.engine()() & 0x7fffffffULL)) {
      const auto pi = ProblemInstance::create(
          std::make_shared<const Ptg>(std::move(g)), model, cluster);
      expect_matches_oracles(*pi, rng);
      if (HasFatalFailure()) return;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 720u);
}

/// Random layered PTG whose tasks have small integer flops, so that
/// under FixedTimeModel / LinearSpeedupModel on a unit cluster bottom
/// levels, gains and processor free times tie all the time.
Ptg tie_heavy_ptg(Rng& rng) {
  const auto layers = static_cast<std::size_t>(rng.uniform_int(1, 8));
  const auto width = static_cast<std::size_t>(rng.uniform_int(1, 8));
  Ptg g("ties-" + std::to_string(layers * width));
  for (std::size_t k = 0; k < layers; ++k) {
    for (std::size_t i = 0; i < width; ++i) {
      const TaskId v = g.add_task(testutil::simple_task(
          "t", static_cast<double>(rng.uniform_int(1, 4))));
      if (k == 0) continue;
      std::vector<TaskId> from;
      for (std::size_t e = 0; e < 1 + rng.index(3); ++e) {
        const auto u = static_cast<TaskId>((k - 1) * width + rng.index(width));
        if (std::find(from.begin(), from.end(), u) != from.end()) continue;
        from.push_back(u);
        g.add_edge(u, v);
      }
    }
  }
  return g;
}

TEST(Differential, TieHeavyInstancesMatchTheOracles) {
  // Exact small-integer times: equal finish times exercise the placement
  // path's (free time, index) tie order, equal bottom levels the critical
  // path's smallest-id rules.
  const auto fixed = std::make_shared<const testutil::FixedTimeModel>();
  const auto linear = std::make_shared<const testutil::LinearSpeedupModel>();
  std::size_t checked = 0;
  for (std::uint64_t k = 0; k < 400; ++k) {
    Rng rng(derive_seed(0x7135, k));
    const auto cluster = std::make_shared<const Cluster>(
        testutil::unit_cluster(static_cast<int>(rng.uniform_int(2, 12))));
    std::shared_ptr<const ExecutionTimeModel> model = fixed;
    if (rng.bernoulli(0.5)) model = linear;
    const auto pi = ProblemInstance::create(
        std::make_shared<const Ptg>(tie_heavy_ptg(rng)), model, cluster);
    expect_matches_oracles(*pi, rng);
    if (HasFatalFailure()) return;
    ++checked;
  }
  EXPECT_EQ(checked, 400u);
}

}  // namespace
}  // namespace ptgsched
