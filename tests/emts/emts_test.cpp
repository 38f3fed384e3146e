// Tests for the EMTS scheduler: configurations, seeding, the improvement
// invariant, determinism, and Model 1 / Model 2 behaviour.

#include "emts/emts.hpp"

#include <gtest/gtest.h>

#include "../common/test_graphs.hpp"
#include "daggen/corpus.hpp"
#include "sched/validate.hpp"

namespace ptgsched {
namespace {

TEST(EmtsConfig, PaperPresets) {
  const EmtsConfig e5 = emts5_config();
  EXPECT_EQ(e5.mu, 5u);
  EXPECT_EQ(e5.lambda, 25u);
  EXPECT_EQ(e5.generations, 5u);
  EXPECT_DOUBLE_EQ(e5.fm, 0.33);
  EXPECT_DOUBLE_EQ(e5.delta, 0.9);
  EXPECT_DOUBLE_EQ(e5.mutation.shrink_probability, 0.2);
  EXPECT_DOUBLE_EQ(e5.mutation.sigma_shrink, 5.0);
  EXPECT_TRUE(e5.plus_selection);

  const EmtsConfig e10 = emts10_config();
  EXPECT_EQ(e10.mu, 10u);
  EXPECT_EQ(e10.lambda, 100u);
  EXPECT_EQ(e10.generations, 10u);
}

TEST(Emts, RejectsBadConfig) {
  EmtsConfig cfg = emts5_config();
  cfg.generations = 0;
  EXPECT_THROW(Emts{cfg}, std::invalid_argument);
  cfg = emts5_config();
  cfg.fm = 0.0;
  EXPECT_THROW(Emts{cfg}, std::invalid_argument);
  cfg = emts5_config();
  cfg.seed_heuristics.clear();
  cfg.use_delta_seed = false;
  cfg.use_random_seed = false;
  EXPECT_THROW(Emts{cfg}, std::invalid_argument);
}

TEST(Emts, SeedsContainConfiguredHeuristics) {
  Rng rng(1);
  const Ptg g = make_fft_ptg(8, rng);
  const Cluster c = platform_by_name("chti");
  const AmdahlModel model;
  const Emts emts(emts5_config());
  const EmtsResult r = emts.schedule(g, model, c);
  ASSERT_EQ(r.seeds.size(), 3u);  // mcpa, hcpa, delta
  EXPECT_EQ(r.seeds[0].heuristic, "mcpa");
  EXPECT_EQ(r.seeds[1].heuristic, "hcpa");
  EXPECT_EQ(r.seeds[2].heuristic, "delta");
  for (const auto& s : r.seeds) {
    EXPECT_GT(s.makespan, 0.0);
    EXPECT_EQ(s.allocation.size(), g.num_tasks());
  }
}

TEST(Emts, NeverWorseThanBestSeed) {
  // Plus selection + heuristic seeds => EMTS's makespan is bounded by the
  // best heuristic's makespan under the same mapping. This is the paper's
  // headline invariant and must hold on every instance and both models.
  const Cluster chti_c = platform_by_name("chti");
  const Cluster grelon_c = platform_by_name("grelon");
  const AmdahlModel m1;
  const SyntheticModel m2;
  EmtsConfig cfg = emts5_config();
  std::uint64_t seed = 100;
  for (const auto& g : irregular_corpus(50, 4, 50)) {
    for (const Cluster* c : {&chti_c, &grelon_c}) {
      for (const ExecutionTimeModel* model :
           std::initializer_list<const ExecutionTimeModel*>{&m1, &m2}) {
        cfg.seed = ++seed;
        const EmtsResult r = Emts(cfg).schedule(g, *model, *c);
        double best_seed = r.seeds.front().makespan;
        for (const auto& s : r.seeds) {
          best_seed = std::min(best_seed, s.makespan);
        }
        EXPECT_LE(r.makespan, best_seed + 1e-9)
            << g.name() << " on " << c->name() << " / " << model->name();
      }
    }
  }
}

TEST(Emts, ProducesValidSchedules) {
  const Cluster c = platform_by_name("grelon");
  const SyntheticModel model;
  EmtsConfig cfg = emts5_config();
  cfg.seed = 3;
  for (const auto& g : layered_corpus(100, 3, 51)) {
    const EmtsResult r = Emts(cfg).schedule(g, model, c);
    EXPECT_NO_THROW(
        validate_schedule(r.schedule, g, r.best_allocation, model, c));
    EXPECT_DOUBLE_EQ(r.schedule.makespan(), r.makespan);
    EXPECT_DOUBLE_EQ(r.es.best.fitness, r.makespan);
  }
}

TEST(Emts, DeterministicGivenSeed) {
  Rng rng(9);
  const Ptg g = make_strassen_ptg(rng);
  const Cluster c = platform_by_name("chti");
  const SyntheticModel model;
  EmtsConfig cfg = emts5_config();
  cfg.seed = 1234;
  const EmtsResult a = Emts(cfg).schedule(g, model, c);
  const EmtsResult b = Emts(cfg).schedule(g, model, c);
  EXPECT_EQ(a.best_allocation, b.best_allocation);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

TEST(Emts, ThreadedRunMatchesSerial) {
  Rng rng(10);
  const Ptg g = make_fft_ptg(8, rng);
  const Cluster c = platform_by_name("grelon");
  const AmdahlModel model;
  EmtsConfig cfg = emts5_config();
  cfg.seed = 7;
  const EmtsResult serial = Emts(cfg).schedule(g, model, c);
  cfg.threads = 3;
  const EmtsResult threaded = Emts(cfg).schedule(g, model, c);
  EXPECT_EQ(serial.best_allocation, threaded.best_allocation);
  EXPECT_DOUBLE_EQ(serial.makespan, threaded.makespan);
}

TEST(Emts, Emts10AtLeastAsGoodAsEmts5) {
  // More offspring and generations never hurt under plus selection with
  // the same seed stream prefix... the paper observes EMTS10 >= EMTS5.
  // With our independent seeding we assert the weaker (but still
  // meaningful) statement on average over a small corpus.
  const Cluster c = platform_by_name("grelon");
  const SyntheticModel model;
  double sum5 = 0.0;
  double sum10 = 0.0;
  std::uint64_t seed = 0;
  for (const auto& g : irregular_corpus(100, 4, 52)) {
    EmtsConfig c5 = emts5_config();
    c5.seed = ++seed;
    EmtsConfig c10 = emts10_config();
    c10.seed = seed;
    sum5 += Emts(c5).schedule(g, model, c).makespan;
    sum10 += Emts(c10).schedule(g, model, c).makespan;
  }
  EXPECT_LE(sum10, sum5 * 1.001);
}

TEST(Emts, ImprovesUnderNonMonotonicModelOnLargeCluster) {
  // The paper's key claim (Figure 5): under Model 2 on Grelon, EMTS
  // substantially improves on MCPA/HCPA. Assert a mean improvement > 2%
  // over a small corpus.
  const Cluster c = platform_by_name("grelon");
  const SyntheticModel model;
  double ratio_sum = 0.0;
  std::size_t n = 0;
  std::uint64_t seed = 500;
  for (const auto& g : irregular_corpus(100, 6, 53)) {
    EmtsConfig cfg = emts5_config();
    cfg.seed = ++seed;
    const EmtsResult r = Emts(cfg).schedule(g, model, c);
    double best_seed = r.seeds.front().makespan;
    for (const auto& s : r.seeds) best_seed = std::min(best_seed, s.makespan);
    ratio_sum += best_seed / r.makespan;
    ++n;
  }
  EXPECT_GT(ratio_sum / static_cast<double>(n), 1.02);
}

TEST(Emts, RandomSeedAblationStillValid) {
  Rng rng(11);
  const Ptg g = make_fft_ptg(4, rng);
  const Cluster c = platform_by_name("chti");
  const AmdahlModel model;
  EmtsConfig cfg = emts5_config();
  cfg.seed_heuristics.clear();
  cfg.use_delta_seed = false;
  cfg.use_random_seed = true;
  cfg.seed = 8;
  const EmtsResult r = Emts(cfg).schedule(g, model, c);
  ASSERT_EQ(r.seeds.size(), 1u);
  EXPECT_EQ(r.seeds[0].heuristic, "random");
  EXPECT_NO_THROW(
      validate_schedule(r.schedule, g, r.best_allocation, model, c));
}

TEST(Emts, TimeBudgetIsHonored) {
  Rng rng(12);
  const Ptg g = make_fft_ptg(16, rng);
  const Cluster c = platform_by_name("grelon");
  const SyntheticModel model;
  EmtsConfig cfg = emts10_config();
  cfg.generations = 100000;
  cfg.time_budget_seconds = 0.1;
  cfg.seed = 9;
  const EmtsResult r = Emts(cfg).schedule(g, model, c);
  EXPECT_TRUE(r.es.stopped_by_time_budget);
  EXPECT_LT(r.total_seconds, 10.0);
  // Stopping on the budget must still hand back a complete, valid
  // best-so-far schedule for the incumbent allocation.
  EXPECT_GT(r.makespan, 0.0);
  EXPECT_EQ(r.best_allocation.size(), g.num_tasks());
  EXPECT_NO_THROW(
      validate_schedule(r.schedule, g, r.best_allocation, model, c));
  EXPECT_FALSE(r.cancelled);
}

TEST(Emts, MutatorClampsToValidRange) {
  const MutateFn mutate = Emts::make_mutator(MutationParams{}, 1.0, 5, 16);
  Rng rng(13);
  Allocation parent(20, 8);
  for (int i = 0; i < 200; ++i) {
    Allocation child = parent;
    mutate(child, 0, rng);
    ASSERT_EQ(child.size(), parent.size());
    for (const int s : child) {
      EXPECT_GE(s, 1);
      EXPECT_LE(s, 16);
    }
  }
}

TEST(Emts, MutatorChangesExpectedAlleleCount) {
  // fm = 0.5, V = 100, generation 0 of 5 -> exactly 50 positions mutated
  // (each by a non-zero delta, though clamping can mask changes at bounds).
  const MutateFn mutate = Emts::make_mutator(MutationParams{}, 0.5, 5, 1000);
  Rng rng(14);
  const Allocation parent(100, 500);  // far from bounds: no clamping
  Allocation child = parent;
  mutate(child, 0, rng);
  std::size_t changed = 0;
  for (std::size_t i = 0; i < parent.size(); ++i) {
    if (child[i] != parent[i]) ++changed;
  }
  EXPECT_EQ(changed, 50u);
}

TEST(Emts, MutatorLateGenerationsChangeFewer) {
  const MutateFn mutate = Emts::make_mutator(MutationParams{}, 0.5, 10, 1000);
  Rng rng(15);
  const Allocation parent(100, 500);
  const auto count_changes = [&](std::size_t gen) {
    std::size_t changed = 0;
    Allocation child = parent;
    mutate(child, gen, rng);
    for (std::size_t i = 0; i < parent.size(); ++i) {
      if (child[i] != parent[i]) ++changed;
    }
    return changed;
  };
  EXPECT_GT(count_changes(0), count_changes(9));
}

}  // namespace
}  // namespace ptgsched
