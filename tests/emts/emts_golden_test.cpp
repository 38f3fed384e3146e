// Golden EMTS trajectories. Every change to the mapping kernel, the ES or
// the mutation operator so far was meant to keep each EMTS run bit-identical:
// the same makespans, allocations, per-generation best/mean/worst and
// evaluation counts. These tests pin those values for a few fixed runs, so a
// change that moves the RNG stream, the evaluation order or any makespan
// fails here rather than only in the benchmark's reference digest.
//
// Pinned: the quickstart example's EMTS10 run (FFT, 32 points, seed 13,
// Grelon, Model 2: 701.125 s as quickstart prints it, after 1010
// evaluations), and EMTS10 and EMTS5 on the first four 100-task irregular
// PTGs of a fixed corpus seed on Grelon under Model 2. For each run: the makespan, a hash of the best
// allocation, a hash of the whole per-generation history (best, mean and
// worst fitness and the cumulative evaluation count, by bit pattern), and
// the ES evaluations plus the engine's scheduled and rejected passes.

#include <gtest/gtest.h>

#include <array>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "core/problem_instance.hpp"
#include "daggen/application_graphs.hpp"
#include "daggen/corpus.hpp"
#include "emts/emts.hpp"
#include "model/execution_time.hpp"
#include "platform/cluster.hpp"
#include "support/rng.hpp"

namespace ptgsched {
namespace {

/// FNV-1a over 64-bit words.
class Fnv {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (word >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    add(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Golden {
  double makespan;
  std::uint64_t allocation_hash;
  std::uint64_t history_hash;
  std::size_t evaluations;
  std::size_t scheduled;
  std::size_t rejections;
};

Golden summarize(const EmtsResult& r) {
  Fnv alloc;
  for (const int s : r.best_allocation) {
    alloc.add(static_cast<std::uint64_t>(s));
  }
  Fnv history;
  for (const GenerationStats& gs : r.es.history) {
    history.add(static_cast<std::uint64_t>(gs.generation));
    history.add(gs.best);
    history.add(gs.mean);
    history.add(gs.worst);
    history.add(static_cast<std::uint64_t>(gs.evaluations));
  }
  return {r.makespan,         alloc.value(),          history.value(),
          r.es.evaluations,   r.eval_stats.scheduled, r.eval_stats.rejections};
}

/// The values as a source line, so an intended change can re-pin them.
std::string source_line(const Golden& g) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{%.17g, 0x%016" PRIx64 "ULL, 0x%016" PRIx64
                "ULL, %zu, %zu, %zu}",
                g.makespan, g.allocation_hash, g.history_hash, g.evaluations,
                g.scheduled, g.rejections);
  return buf;
}

void expect_golden(const EmtsResult& r, const Golden& want,
                   const std::string& what) {
  const Golden got = summarize(r);
  const std::string line = what + ": got " + source_line(got);
  EXPECT_EQ(got.makespan, want.makespan) << line;
  EXPECT_EQ(got.allocation_hash, want.allocation_hash) << line;
  EXPECT_EQ(got.history_hash, want.history_hash) << line;
  EXPECT_EQ(got.evaluations, want.evaluations) << line;
  EXPECT_EQ(got.scheduled, want.scheduled) << line;
  EXPECT_EQ(got.rejections, want.rejections) << line;
}

TEST(EmtsGolden, QuickstartEmts10) {
  Rng rng(13);
  const Ptg g = make_fft_ptg(32, rng);
  const Cluster cluster = platform_by_name("grelon");
  const auto model = make_model("model2");
  EmtsConfig cfg = emts10_config();
  cfg.seed = 13;
  // quickstart prints this makespan as 701.125.
  expect_golden(Emts(cfg).schedule(g, *model, cluster),
                {701.12546250590708, 0xe65a2d52d61d3f15ULL,
                 0x66f39cf4f81681fbULL, 1010, 1009, 849},
                "quickstart emts10");
}

constexpr std::size_t kCases = 4;

void expect_corpus_golden(const EmtsConfig& base, const char* name,
                          const std::array<Golden, kCases>& want) {
  const auto cluster = std::make_shared<const Cluster>(grelon());
  const auto model = make_model("model2");
  std::size_t i = 0;
  for (Ptg& g : irregular_corpus(100, kCases, 2011)) {
    const auto pi = ProblemInstance::create(
        std::make_shared<const Ptg>(std::move(g)), model, cluster);
    EmtsConfig cfg = base;
    cfg.seed = derive_seed(2011, i);
    expect_golden(Emts(cfg).schedule(pi), want[i],
                  std::string(name) + " case " + std::to_string(i));
    ++i;
  }
  EXPECT_EQ(i, kCases);
}

TEST(EmtsGolden, Emts10OnIrregularCorpus) {
  expect_corpus_golden(
      emts10_config(), "emts10",
      {{{539.98734982337328, 0x5497ab2b8413c599ULL, 0xdbd10d6ab1bf88c2ULL,
         1010, 1009, 802},
        {652.24326109031438, 0xc9d981d400633484ULL, 0x3158d0870097ca4dULL,
         1010, 1009, 768},
        {403.65671216487203, 0x2b94c78a9588acb5ULL, 0x0ce504b779118ccaULL,
         1010, 1009, 790},
        {975.67536529095867, 0x84480daf5cc3afc3ULL, 0xdd65e14595804438ULL,
         1010, 1009, 780}}});
}

TEST(EmtsGolden, Emts5OnIrregularCorpus) {
  expect_corpus_golden(
      emts5_config(), "emts5",
      {{{596.2179680396431, 0x2d8c877102c3e07fULL, 0x915652ed02d6288aULL,
         130, 129, 87},
        {723.86616192650172, 0xc53e2a62373c138eULL, 0x45966ad334ee0811ULL,
         130, 129, 73},
        {486.79315214824345, 0x26ae4bd68430404cULL, 0xefec29facbdecc46ULL,
         130, 129, 74},
        {1167.0689930278343, 0x9b588592a6e10797ULL, 0xc53642f1ae63cdcaULL,
         130, 129, 84}}});
}

}  // namespace
}  // namespace ptgsched
