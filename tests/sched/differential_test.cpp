// Generative differential tests: on thousands of seeded generated
// instances, the incremental CPA-family heuristics must return exactly the
// allocations of the from-scratch reference loops (reference_cpa), and the
// kernel's placement path must emit exactly the ReferenceMapper's
// schedules, valid under validate_schedule, for both selection policies.
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
#include <memory>
#include <string>
#include <vector>

#include "../common/reference_cpa.hpp"
#include "../common/reference_mapper.hpp"
#include "../common/test_graphs.hpp"
#include "core/problem_instance.hpp"
#include "daggen/corpus.hpp"
#include "heuristics/bicpa.hpp"
#include "heuristics/cpa.hpp"
#include "model/execution_time.hpp"
#include "platform/cluster.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/validate.hpp"
#include "support/rng.hpp"

namespace ptgsched {
namespace {

/// Heuristic allocations against the oracle, then placement passes of the
/// kernel against the ReferenceMapper on those allocations and on one
/// random allocation.
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

  Allocation random(pi.num_tasks());
  for (auto& s : random) {
    s = static_cast<int>(rng.uniform_int(1, pi.num_processors()));
  }
  for (const ProcessorSelection policy :
       {ProcessorSelection::EarliestAvailable, ProcessorSelection::BestFit}) {
    ListSchedulerOptions opts;
    opts.selection = policy;
    ListScheduler sched(pi.shared_from_this(), opts);
    ReferenceMapper oracle(pi.shared_from_this(), opts);
    for (const Allocation* alloc :
         std::array<const Allocation*, 3>{&cpa, &mcpa, &random}) {
      const Schedule got = sched.build_schedule(*alloc);
      const Schedule ref = oracle.build_schedule(*alloc);
      ASSERT_EQ(got.makespan(), ref.makespan()) << where;
      for (TaskId v = 0; v < pi.num_tasks(); ++v) {
        ASSERT_EQ(got.placement(v).start, ref.placement(v).start) << where;
        ASSERT_EQ(got.placement(v).finish, ref.placement(v).finish) << where;
        ASSERT_EQ(got.placement(v).processors, ref.placement(v).processors)
            << where << ", task " << v;
      }
      validate_schedule(got, pi.graph(), *alloc, pi.model(), pi.cluster());
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
