// Tests for the shared MappingKernel: single- and multi-cluster schedulers
// must agree on a one-cluster platform (they run the same engine), the
// value and placement paths must report bit-identical makespans for both
// processor-selection policies, the rejection counter must support exact
// reset semantics, and every pass must match the ReferenceMapper oracle
// bit for bit — on the corpus classes and on the wide-index and wide-lane
// kernel paths.

#include "sched/mapping_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "../common/reference_mapper.hpp"
#include "../common/test_graphs.hpp"
#include "core/problem_instance.hpp"
#include "daggen/corpus.hpp"
#include "platform/multi_cluster.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/multi_cluster_scheduler.hpp"
#include "sched/validate.hpp"
#include "support/rng.hpp"

namespace ptgsched {
namespace {

using testutil::FixedTimeModel;
using testutil::unit_cluster;

constexpr double kInf = std::numeric_limits<double>::infinity();

Allocation random_allocation(const Ptg& g, int max_size, Rng& rng) {
  Allocation alloc(g.num_tasks());
  for (auto& s : alloc) s = static_cast<int>(rng.uniform_int(1, max_size));
  return alloc;
}

TEST(MappingKernel, EarliestStartIsAPureQuery) {
  const Ptg g = testutil::chain3();
  const Cluster c = unit_cluster(4);
  const FixedTimeModel model;
  const auto pi = ProblemInstance::borrow(g, model, c);
  MappingKernel core(*pi, {MappingLane{4, 0}});
  // Probing must not mutate lane state: repeated queries agree.
  EXPECT_DOUBLE_EQ(core.earliest_start(0, 2, 1.5), 1.5);
  EXPECT_DOUBLE_EQ(core.earliest_start(0, 2, 1.5), 1.5);
  EXPECT_DOUBLE_EQ(core.earliest_start(0, 4, 0.0), 0.0);
}

TEST(MappingKernel, SingleAndMultiClusterAgreeOnOneClusterPlatform) {
  const auto graphs = irregular_corpus(40, 3, 77);
  const Cluster c = chti();
  const SyntheticModel model;
  const MultiClusterPlatform platform({c});
  for (const auto& g : graphs) {
    const auto pi = ProblemInstance::borrow(g, model, c);
    ListScheduler single(pi);
    Rng rng(g.num_tasks());
    for (int trial = 0; trial < 5; ++trial) {
      const Allocation alloc =
          random_allocation(g, c.num_processors(), rng);
      // The multi-cluster engine takes explicit priority times; feed it
      // the same per-allocation times the single-cluster engine derives.
      std::vector<double> times(g.num_tasks());
      McAllocation mc;
      mc.sizes.assign(g.num_tasks(), std::vector<int>(1));
      for (TaskId v = 0; v < g.num_tasks(); ++v) {
        times[v] = pi->time(v, alloc[v]);
        mc.sizes[v][0] = alloc[v];
      }
      const Schedule s1 = single.build_schedule(alloc);
      const Schedule s2 = map_mc_allocation(g, mc, model, platform, times);
      ASSERT_EQ(s1.num_tasks(), s2.num_tasks());
      EXPECT_DOUBLE_EQ(s1.makespan(), s2.makespan());
      for (TaskId v = 0; v < g.num_tasks(); ++v) {
        EXPECT_DOUBLE_EQ(s1.placement(v).start, s2.placement(v).start);
        EXPECT_DOUBLE_EQ(s1.placement(v).finish, s2.placement(v).finish);
        EXPECT_EQ(s1.placement(v).processors, s2.placement(v).processors);
      }
    }
  }
}

TEST(MappingKernel, ValueAndPlacementPathsAgreeForBothPolicies) {
  const auto graphs = irregular_corpus(50, 3, 78);
  const Cluster c = chti();
  const SyntheticModel model;
  for (const ProcessorSelection policy :
       {ProcessorSelection::EarliestAvailable, ProcessorSelection::BestFit}) {
    ListSchedulerOptions opts;
    opts.selection = policy;
    for (const auto& g : graphs) {
      ListScheduler sched(g, c, model, opts);
      Rng rng(g.num_tasks() + static_cast<std::size_t>(policy));
      for (int trial = 0; trial < 5; ++trial) {
        const Allocation alloc =
            random_allocation(g, c.num_processors(), rng);
        const Schedule s = sched.build_schedule(alloc);
        // Value path (no Schedule) and placement path must match bit for
        // bit: the multiset of free times evolves identically.
        EXPECT_DOUBLE_EQ(sched.makespan(alloc), s.makespan());
        validate_schedule(s, g, alloc, model, c);
      }
    }
  }
}

TEST(MappingKernel, RejectionCounterResetsExactly) {
  const Ptg g = testutil::chain3();  // sequential: makespan 6 on all-ones
  const Cluster c = unit_cluster(2);
  const FixedTimeModel model;
  ListScheduler sched(g, c, model);
  const Allocation alloc{1, 1, 1};

  EXPECT_EQ(sched.rejected_count(), 0u);
  EXPECT_TRUE(std::isinf(sched.makespan_bounded(alloc, 1.0)));
  EXPECT_TRUE(std::isinf(sched.makespan_bounded(alloc, 1.0)));
  EXPECT_EQ(sched.rejected_count(), 2u);

  sched.reset_stats();
  EXPECT_EQ(sched.rejected_count(), 0u);

  // Counting restarts from zero, not from a lifetime offset.
  EXPECT_TRUE(std::isinf(sched.makespan_bounded(alloc, 1.0)));
  EXPECT_EQ(sched.rejected_count(), 1u);
  EXPECT_DOUBLE_EQ(sched.makespan_bounded(alloc, kInf), 6.0);
  EXPECT_EQ(sched.rejected_count(), 1u);  // accepted runs don't count
}

TEST(MappingKernel, MatchesReferenceMapperOracle) {
  const Cluster c = chti();
  const SyntheticModel model;
  for (const std::string cls : {"fft", "strassen", "layered", "irregular"}) {
    const auto graphs = corpus_by_name(cls, 40, 2, 903);
    for (const ProcessorSelection policy :
         {ProcessorSelection::EarliestAvailable,
          ProcessorSelection::BestFit}) {
      ListSchedulerOptions opts;
      opts.selection = policy;
      for (const auto& g : graphs) {
        const auto pi = ProblemInstance::borrow(g, model, c);
        ListScheduler sched(pi, opts);
        ReferenceMapper oracle(pi, opts);
        Rng rng(derive_seed(44, g.num_tasks(),
                            static_cast<std::uint64_t>(policy)));
        for (int trial = 0; trial < 8; ++trial) {
          const Allocation alloc =
              random_allocation(g, c.num_processors(), rng);
          const double want = oracle.makespan(alloc);
          ASSERT_EQ(want, sched.makespan(alloc));
          // Bounded runs agree too, including the rejection decision.
          for (const double factor : {0.8, 1.0, 1.2}) {
            ASSERT_EQ(oracle.makespan_bounded(alloc, want * factor),
                      sched.makespan_bounded(alloc, want * factor));
          }
        }
        EXPECT_EQ(oracle.rejected_count(), sched.rejected_count());
      }
    }
  }
}

/// Layered PTG with `layers` x `width` tasks; each task past the first
/// layer depends on one to three random tasks of the layer above.
Ptg layered_ptg(std::size_t layers, std::size_t width, Rng& rng) {
  Ptg g("layered-" + std::to_string(layers * width));
  for (std::size_t k = 0; k < layers; ++k) {
    for (std::size_t i = 0; i < width; ++i) {
      const TaskId v = g.add_task(testutil::simple_task(
          "t", static_cast<double>(rng.uniform_int(1, 50))));
      if (k == 0) continue;
      const std::size_t above = (k - 1) * width;
      const std::size_t preds = 1 + rng.index(3);
      std::vector<TaskId> from;
      for (std::size_t e = 0; e < preds; ++e) {
        const auto u = static_cast<TaskId>(above + rng.index(width));
        if (std::find(from.begin(), from.end(), u) != from.end()) continue;
        from.push_back(u);
        g.add_edge(u, v);
      }
    }
  }
  return g;
}

/// Value, bounded (with rejection count) and placement passes of the
/// kernel against the oracle, plus schedule validation, for both
/// selection policies on random allocations.
void expect_oracle_agreement(const Ptg& g, const Cluster& c,
                             const ExecutionTimeModel& model, int trials,
                             std::uint64_t seed) {
  const auto pi = ProblemInstance::borrow(g, model, c);
  for (const ProcessorSelection policy :
       {ProcessorSelection::EarliestAvailable, ProcessorSelection::BestFit}) {
    ListSchedulerOptions opts;
    opts.selection = policy;
    ListScheduler sched(pi, opts);
    ReferenceMapper oracle(pi, opts);
    Rng rng(derive_seed(seed, static_cast<std::uint64_t>(policy)));
    for (int trial = 0; trial < trials; ++trial) {
      const Allocation alloc = random_allocation(g, c.num_processors(), rng);
      const double want = oracle.makespan(alloc);
      ASSERT_EQ(want, sched.makespan(alloc));
      for (const double factor : {0.8, 1.0, 1.2}) {
        ASSERT_EQ(oracle.makespan_bounded(alloc, want * factor),
                  sched.makespan_bounded(alloc, want * factor));
      }
      const Schedule got = sched.build_schedule(alloc);
      const Schedule ref = oracle.build_schedule(alloc);
      ASSERT_EQ(got.makespan(), want);
      for (TaskId v = 0; v < g.num_tasks(); ++v) {
        ASSERT_EQ(got.placement(v).start, ref.placement(v).start) << v;
        ASSERT_EQ(got.placement(v).finish, ref.placement(v).finish) << v;
        ASSERT_EQ(got.placement(v).processors, ref.placement(v).processors)
            << v;
      }
      validate_schedule(got, g, alloc, model, c);
    }
    EXPECT_GT(sched.rejected_count(), 0u);
    EXPECT_EQ(oracle.rejected_count(), sched.rejected_count());
  }
}

TEST(MappingKernel, WideIndexGraphMatchesTheOracle) {
  // More than 65535 tasks: adjacency ids no longer fit in 16 bits, so the
  // kernel runs its State<uint32_t> instantiation.
  Rng rng(1301);
  const Ptg g = layered_ptg(140, 500, rng);
  ASSERT_GT(g.num_tasks(), std::size_t{65535});
  expect_oracle_agreement(g, unit_cluster(16), testutil::LinearSpeedupModel(),
                          2, 1302);
}

TEST(MappingKernel, WideLaneMatchesTheOracle) {
  // A 600-processor lane: run counts far above a cluster's usual widths,
  // and many runs per lane when narrow tasks overlap.
  Rng rng(1303);
  const Ptg g = layered_ptg(12, 25, rng);
  expect_oracle_agreement(g, unit_cluster(600),
                          testutil::LinearSpeedupModel(), 6, 1304);
}

TEST(MappingKernel, SchedulersShareInstanceAcrossConstructions) {
  const Ptg g = testutil::diamond();
  const Cluster c = unit_cluster(4);
  const FixedTimeModel model;
  const auto pi = ProblemInstance::borrow(g, model, c);
  ListScheduler a(pi);
  ListScheduler b(pi);
  EXPECT_EQ(&a.instance(), &b.instance());
  const Allocation alloc{1, 2, 2, 1};
  EXPECT_DOUBLE_EQ(a.makespan(alloc), b.makespan(alloc));
}

}  // namespace
}  // namespace ptgsched
