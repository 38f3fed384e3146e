// Kill-and-recover tests for ptgsched-serve: a daemon killed by SIGTERM
// mid-request (routed through install_signal_cancellation, exactly the
// path a real deployment takes) must stop without journaling bogus
// terminal states, and a fresh daemon on the same journal must
//
//   * serve every request finished before the kill bit-identically
//     (byte-for-byte equal result payloads), and
//   * re-run every interrupted request to completion — at the pinned tier
//     and deterministic seed, so the re-run result equals what an
//     uninterrupted daemon would have produced.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "heavy_spec.hpp"
#include "serve/client.hpp"
#include "serve/journal.hpp"
#include "serve/server.hpp"
#include "support/cancellation.hpp"

namespace ptgsched::serve {
namespace {

namespace fs = std::filesystem;

JobSpec spec_for(std::uint64_t seed) {
  JobSpec spec;
  spec.cls = "layered";
  spec.tasks = 25;
  spec.platform = "chti";
  spec.model = "model1";
  spec.seed = seed;
  return spec;
}

class KillRecoverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path("/tmp") /
           ("ptgkill_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()
                ->current_test_info()
                ->name());
    fs::create_directories(dir_);
    config_.socket_path = (dir_ / "sock").string();
    config_.journal_path = (dir_ / "journal.jsonl").string();
    config_.queue_capacity = 32;
    // One worker keeps the phase-1 script deterministic: the heavyweight
    // request occupies it while the request behind stays queued.
    config_.workers = 1;
    config_.base_seed = 23;
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  ServeConfig config_;
};

TEST_F(KillRecoverTest, SigtermMidRequestRecoversBitIdentically) {
  // --- Phase 1: serve some traffic, then SIGTERM mid-request. ----------
  std::map<std::uint64_t, std::string> finished_results;
  std::vector<std::uint64_t> interrupted_ids;
  // The kill follows within milliseconds of the worker picking the heavy
  // request up; a run measured at 250 ms or more straddles it with a wide
  // margin.
  const JobSpec heavy = heavy_spec(spec_for(5), 2000, 0.25);
  {
    CancellationToken shutdown;
    install_signal_cancellation(&shutdown);
    ServeConfig cfg = config_;
    cfg.shutdown = &shutdown;
    ServeServer server(cfg);
    server.start();

    ServeClient client(cfg.socket_path);
    // Two requests run to completion...
    for (const std::uint64_t seed : {3ULL, 4ULL}) {
      const SubmitOutcome o = client.submit(spec_for(seed), "tenant-a");
      ASSERT_TRUE(o.accepted);
      const auto final_status = client.wait_terminal(o.id, 60.0);
      ASSERT_TRUE(final_status.has_value());
      ASSERT_EQ("done", final_status->at("status").as_string());
      finished_results[o.id] = client.result(o.id).dump();
    }
    // ...then a heavyweight one is mid-flight when SIGTERM arrives,
    // with another queued behind it on the single worker.
    const SubmitOutcome running = client.submit(heavy, "tenant-a");
    ASSERT_TRUE(running.accepted);
    interrupted_ids.push_back(running.id);
    const SubmitOutcome queued = client.submit(spec_for(6), "tenant-b");
    ASSERT_TRUE(queued.accepted);
    interrupted_ids.push_back(queued.id);

    // Wait until the worker has actually picked the heavy request up, so
    // the SIGTERM lands mid-request, not mid-queue.
    while (true) {
      const Json status = client.status(running.id);
      ASSERT_TRUE(status.at("ok").as_bool());
      const std::string& s = status.at("status").as_string();
      ASSERT_TRUE(s == "queued" || s == "running")
          << "heavy request finished before the kill — raise its size";
      if (s == "running") break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    // Genuine SIGTERM through the installed handler — the same
    // async-signal-safe path a real `kill` takes.
    std::raise(SIGTERM);
    install_signal_cancellation(nullptr);
    server.wait();
    EXPECT_TRUE(server.stopped());
  }

  // The journal must show the interrupted requests as non-terminal.
  {
    const RecoveredState state =
        RequestJournal::recover(config_.journal_path);
    for (const std::uint64_t id : interrupted_ids) {
      ASSERT_TRUE(state.requests.count(id) > 0);
      EXPECT_FALSE(is_terminal(state.requests.at(id).status))
          << "shutdown journaled a terminal state for request " << id;
    }
    for (const auto& [id, dump] : finished_results) {
      EXPECT_EQ(RequestStatus::kDone, state.requests.at(id).status);
    }
  }

  // --- Phase 2: a fresh daemon on the same journal. --------------------
  {
    ServeServer server(config_);
    server.start();
    EXPECT_GE(server.counters().recovered, interrupted_ids.size());

    ServeClient client(config_.socket_path);
    // Finished-before-kill results are served bit-identically.
    for (const auto& [id, dump] : finished_results) {
      EXPECT_EQ(dump, client.result(id).dump())
          << "recovered result for request " << id << " differs";
    }
    // Interrupted requests re-run to completion.
    for (const std::uint64_t id : interrupted_ids) {
      const auto final_status = client.wait_terminal(id, 120.0);
      ASSERT_TRUE(final_status.has_value());
      EXPECT_EQ("done", final_status->at("status").as_string())
          << "request " << id;
      EXPECT_GT(client.result(id).at("makespan").as_double(), 0.0);
    }
    server.stop();
  }

  // --- Phase 3: determinism oracle — an uninterrupted daemon on a fresh
  // journal produces the same results for the same submissions. ---------
  {
    ServeConfig fresh = config_;
    fresh.socket_path = (dir_ / "sock2").string();
    fresh.journal_path = (dir_ / "journal2.jsonl").string();
    ServeServer server(fresh);
    server.start();
    ServeClient client(fresh.socket_path);

    const SubmitOutcome o = client.submit(heavy, "tenant-a");
    ASSERT_TRUE(o.accepted);
    ASSERT_TRUE(client.wait_terminal(o.id, 120.0).has_value());
    const std::string oracle = client.result(o.id).dump();
    server.stop();

    // Compare against the recovered daemon's re-run of the same spec,
    // tenant, and (recovered) attempt.
    const RecoveredState state =
        RequestJournal::recover(config_.journal_path);
    const std::string recovered =
        state.requests.at(interrupted_ids[0]).result.dump();
    EXPECT_EQ(oracle, recovered)
        << "re-run after recovery diverged from an uninterrupted run";
  }
}

TEST_F(KillRecoverTest, RestartAfterCleanStopServesOldResults) {
  std::uint64_t id = 0;
  std::string dump;
  {
    ServeServer server(config_);
    server.start();
    ServeClient client(config_.socket_path);
    const SubmitOutcome o = client.submit(spec_for(11), "t");
    ASSERT_TRUE(o.accepted);
    id = o.id;
    ASSERT_TRUE(client.wait_terminal(id, 60.0).has_value());
    dump = client.result(id).dump();
    server.stop();
  }
  {
    ServeServer server(config_);
    server.start();
    ServeClient client(config_.socket_path);
    EXPECT_EQ(dump, client.result(id).dump());
    // New ids never collide with journaled ones.
    const SubmitOutcome o = client.submit(spec_for(12), "t");
    ASSERT_TRUE(o.accepted);
    EXPECT_GT(o.id, id);
    server.stop();
  }
}

}  // namespace
}  // namespace ptgsched::serve
