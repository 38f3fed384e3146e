// emts10-n100: the paper's Section V-B runtime configuration (EMTS10,
// Model 2, Grelon, DAGGEN irregular 100-task PTGs) as back-to-back
// Emts::schedule calls in a closed loop from one thread.

#include <algorithm>
#include <cstdio>
#include <limits>

#include "daggen/corpus.hpp"
#include "layers.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ptgsched;

namespace {

constexpr int kTasks = 100;
/// Every shape of the irregular corpus once: 12 DAGGEN configurations x 3
/// jumps. Few cases give each many repetitions in a run, which best-of-R
/// needs (NOTES.md, "Why best-of-R").
constexpr std::size_t kCorpusSize = 36;
/// A call counts toward goodput only if it finished within this. The
/// best-of call times are 20-25 ms, so every valid call is good and
/// goodput_rps equals schedules_per_s here (NOTES.md).
constexpr double kLatencyLimitMs = 250.0;
constexpr std::size_t kWarmupCalls = 8;
/// The reference digest covers the first cases at kReferenceSeed.
constexpr std::size_t kReferenceCases = 4;
/// p90 needs at least this many calls per run.
constexpr std::size_t kMinCalls = 100;
/// Set-ups per run, spread over the timed loop (NOTES.md, "End-to-end
/// metrics").
constexpr std::size_t kSetupReps = 25;

EmtsConfig call_config(std::uint64_t seed, std::size_t case_index) {
  EmtsConfig cfg = emts10_config();
  cfg.seed = derive_seed(seed, 0xe375, case_index);
  return cfg;
}

/// The PTGs are the same in every run (DAGGEN at kReferenceSeed), so two
/// runs time the same graphs; the run's seed drives every EMTS run. With
/// graphs drawn from the run's seed, the corpus alone moved a 500-task
/// variant's p50 by up to 25% between seeds (NOTES.md, "Seeds").
std::vector<Ptg> corpus(std::size_t count) {
  return irregular_corpus(kTasks, count,
                          derive_seed(kReferenceSeed, 0xc0, 0x125));
}

struct Setup {
  std::vector<Case> cases;
  std::vector<double> build_ms;
  std::string digest;
};

/// Corpus generation and instance builds: what setup_s times.
Setup set_up(std::uint64_t seed) {
  Setup s;
  Digest digest;
  for (Ptg& g : corpus(kCorpusSize)) {
    digest.add(g);
    digest.add(call_config(seed, s.cases.size()).seed);
    const auto t0 = Clock::now();
    auto instance = build_instance(std::move(g), "grelon", "model2");
    s.build_ms.push_back(ms_between(t0, Clock::now()));
    s.cases.push_back(make_case(std::move(instance)));
  }
  s.digest = digest.hex();
  return s;
}

}  // namespace

void run_emts_workload(const Options& opts, Report& report, Gate& gate) {
  // --- Set-up. It is repeated between the timed calls below, one
  // repetition per slot of the run; the median is setup_s. -------------
  std::vector<double> setups;
  const auto timed_set_up = [&] {
    const auto t0 = Clock::now();
    Setup s = set_up(opts.seed);
    setups.push_back(seconds_between(t0, Clock::now()));
    return s;
  };
  const Setup setup = timed_set_up();
  // --- Untimed warm-up. ----------------------------------------------------
  for (std::size_t i = 0; i < kWarmupCalls; ++i) {
    const std::size_t c = i % setup.cases.size();
    (void)Emts(call_config(opts.seed, c)).schedule(setup.cases[c].instance);
  }
  const std::vector<Case>& cases = setup.cases;

  // --- Timed: closed loop over the corpus. -------------------------------
  // Each call is validated and compared right after it, outside its timed
  // span; only the first pass's results are kept. Traced runs interleave
  // each untraced call with its traced twin on the same inputs,
  // alternating which goes first.
  const std::size_t n = cases.size();
  std::vector<EmtsResult> first(n);
  std::vector<double> best_ms(n, std::numeric_limits<double>::infinity());
  std::vector<bool> good(n, true);
  std::size_t calls = 0;
  LayerAccumulator layers;
  for (const double ms : setup.build_ms) layers.add_instance_build(ms);
  const auto start = Clock::now();
  while (seconds_between(start, Clock::now()) < opts.seconds ||
         calls < std::max(kMinCalls, n)) {
    if (setups.size() < kSetupReps &&
        seconds_between(start, Clock::now()) >=
            opts.seconds * static_cast<double>(setups.size()) /
                static_cast<double>(kSetupReps)) {
      // Self-test: the same seed generates the same workload.
      gate.check(timed_set_up().digest == setup.digest,
                 "same seed generated a different corpus");
    }
    const std::size_t c = calls % n;
    const EmtsConfig cfg = call_config(opts.seed, c);
    LayerTimes times;
    EmtsResult traced;
    const bool traced_first = calls % 2 == 1;
    if (opts.trace && traced_first) {
      traced = traced_schedule(cases[c].instance, cfg, times);
    }
    const auto t0 = Clock::now();
    EmtsResult r = Emts(cfg).schedule(cases[c].instance);
    const double ms = ms_between(t0, Clock::now());
    if (opts.trace && !traced_first) {
      traced = traced_schedule(cases[c].instance, cfg, times);
    }
    if (opts.trace) layers.add_pair(r, ms, traced, times, gate);

    gate.attempt();
    best_ms[c] = std::min(best_ms[c], ms);
    if (!validate_result(*cases[c].instance, r, gate)) {
      good[c] = false;
    } else if (calls < n) {
      first[c] = std::move(r);
    } else if (r.makespan != first[c].makespan ||
               r.best_allocation != first[c].best_allocation) {
      gate.fail("repeated call on the same inputs returned another schedule");
      good[c] = false;
    }
    ++calls;
  }
  double ratio_sum = 0.0;
  double best_sum_ms = 0.0;
  double good_cases = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    ratio_sum += first[c].makespan / cases[c].lower_bound;
    best_sum_ms += best_ms[c];
    if (good[c] && best_ms[c] <= kLatencyLimitMs) good_cases += 1.0;
  }

  // --- Untimed: the rest of the correctness gate. --------------------------
  // The committed reference: makespans and allocations at a fixed seed.
  Digest ref;
  std::size_t c = 0;
  for (Ptg& g : corpus(kReferenceCases)) {
    const auto instance = build_instance(std::move(g), "grelon", "model2");
    gate.attempt();
    const EmtsResult r =
        Emts(call_config(kReferenceSeed, c++)).schedule(instance);
    validate_result(*instance, r, gate);
    ref.add(r.makespan);
    ref.add(r.best_allocation);
  }
  const std::string want = reference_digest(opts.workload);
  std::fprintf(stderr, "perfbench: reference digest %s = %s\n",
               opts.workload.c_str(), ref.hex().c_str());
  gate.check(ref.hex() == want, opts.workload + " reference digest " +
                                    ref.hex() + " != committed " + want);

  // Per-call times are each case's best of its repetitions in the run
  // (NOTES.md, "Why best-of-R"): a pass over the corpus at those times
  // gives the throughput figures.
  const std::vector<double> case_ms(best_ms.begin(), best_ms.end());
  const double nd = static_cast<double>(n);
  report.set("setup_s", median(setups), "s");
  report.set("schedule_ms_p50", percentile(case_ms, 50), "ms");
  report.set("schedule_ms_p90", percentile(case_ms, 90), "ms");
  report.set("schedules_per_s", 1000.0 * nd / best_sum_ms, "1/s");
  report.set("makespan_over_lb", ratio_sum / nd, "ratio");
  // A schedule call is this workload's request.
  report.set("request_ms_p50", percentile(case_ms, 50), "ms");
  report.set("request_ms_p99", percentile(case_ms, 99), "ms");
  report.set("goodput_rps", 1000.0 * good_cases / best_sum_ms, "1/s");
  if (opts.trace) layers.report(report, gate);
  // No daemon runs here.
  report.mark_not_applicable("serve.");
  report.mark_not_applicable("loadgen.");
  report.mark_not_applicable("eval.pool_");
}

}  // namespace perfbench
