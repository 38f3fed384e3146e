// serve-hot / serve-cold: an in-process ServeServer on its real AF_UNIX
// socket, driven open-loop. One generator thread submits on a seeded
// Poisson schedule over one connection; one poller thread polls the
// outstanding ids over a second connection. Every done result is then
// recomputed in-process and compared bit for bit.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "daggen/corpus.hpp"
#include "eval/evaluation_engine.hpp"
#include "heuristics/allocation_heuristic.hpp"
#include "layers.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ptgsched;
using namespace ptgsched::serve;

namespace {

/// Requests come from this many tenants. A result is a pure function of
/// (tenant, spec, attempt), so tenants multiply the distinct EMTS
/// trajectories behind the same hot engines: with one tenant, serve-hot's
/// four computations alone moved its figures by 30% between seeds.
constexpr std::size_t kTenants = 16;
constexpr int kServeTasks = 50;
/// Distinct irregular-corpus shapes (12 DAGGEN configurations x 3 jumps).
constexpr std::size_t kShapes = 36;
constexpr std::size_t kWorkers = 2;
/// serve-hot's distinct specs: half of EnginePool's default capacity of 8,
/// below the LRU cliff on purpose (NOTES.md, "The engine-pool LRU cliff").
constexpr std::size_t kHotSpecs = 4;
constexpr double kDrainTimeoutS = 30.0;
constexpr std::size_t kSetupReps = 31;
/// Requests in the journal every timed daemon start recovers.
constexpr std::size_t kJournalHistory = 256;
/// The poller's sleep when nothing is outstanding. While requests are
/// outstanding it polls back to back, so a request's terminal state is
/// seen one status round trip after it happens, however the host's timers
/// behave (NOTES.md, "The poll floor").
constexpr double kIdlePollMs = 0.2;
/// Traced runs time the served computations in-process: at most this
/// many keys.
constexpr std::size_t kTimedKeys = 100;

/// The load of each serve workload: the open-loop arrival rate (about a
/// quarter of the quiet saturating throughput, NOTES.md "Workloads") and
/// the latency within which a request counts toward goodput_rps (about
/// three times the quiet median request latency).
struct Load {
  double rate;
  double latency_limit_ms;
};
Load workload_load(bool cold) {
  return cold ? Load{100.0, 15.0} : Load{200.0, 10.0};
}

/// The wire carries numbers as doubles: keep corpus seeds exact.
std::uint64_t corpus_seed(std::uint64_t h) { return h & 0x7fffffffULL; }

/// Every serve spec runs the paper's Section V-B platform and model, as
/// emts10-n100 does. With half of them on Chti/Model 1 (about 40% faster
/// calls), the per-class times split into two clusters and their median
/// fell on the gap between them (NOTES.md, "Seeds").
JobSpec shaped_spec() {
  JobSpec s;
  s.cls = "irregular";
  s.tasks = kServeTasks;
  s.platform = "grelon";
  s.model = "model2";
  return s;
}

/// The four hot specs: fixed shapes spread over the corpus and fixed
/// instances (the run's seed picks the mix and, through the daemon's base
/// seed, every EMTS trajectory), so the hot set's cost does not swing
/// with the seed.
std::vector<JobSpec> hot_specs() {
  std::vector<JobSpec> out;
  for (std::size_t k = 0; k < kHotSpecs; ++k) {
    JobSpec s = shaped_spec();
    s.seed = corpus_seed(derive_seed(kReferenceSeed, 0x407, k));
    s.corpus_index = 4 + 9 * k;
    out.push_back(s);
  }
  return out;
}

/// A cold spec: a fresh corpus seed, so its fingerprint was never seen.
JobSpec cold_spec(std::uint64_t seed, std::uint64_t salt, std::size_t k) {
  JobSpec s = shaped_spec();
  s.seed = corpus_seed(derive_seed(seed, salt, k));
  s.corpus_index = k % kShapes;
  return s;
}

std::string tenant_name(std::size_t t) { return "t" + std::to_string(t); }

/// One submission: what to schedule, for whom.
struct Job {
  JobSpec spec;
  std::string tenant;
};

/// The request stream of one session, in submission order.
std::vector<Job> request_jobs(const Options& opts, bool cold, std::size_t n) {
  std::vector<Job> out;
  out.reserve(n);
  const std::vector<JobSpec> hot = hot_specs();
  Rng rng(derive_seed(opts.seed, 0x3a7));
  for (std::size_t k = 0; k < n; ++k) {
    const std::string tenant = tenant_name(rng.index(kTenants));
    out.push_back({cold ? cold_spec(opts.seed, 0xc01d, k)
                        : hot[rng.index(hot.size())],
                   tenant});
  }
  return out;
}

/// Untimed warm-up submissions: every hot spec twice, or eight cold ones.
std::vector<Job> warmup_jobs(const Options& opts, bool cold) {
  std::vector<Job> out;
  if (cold) {
    for (std::size_t k = 0; k < 8; ++k) {
      out.push_back({cold_spec(opts.seed, 0x3a3f, k), tenant_name(k)});
    }
  } else {
    for (const JobSpec& s : hot_specs()) {
      out.push_back({s, tenant_name(0)});
      out.push_back({s, tenant_name(1)});
    }
  }
  return out;
}

struct Req {
  Job job;
  Clock::time_point due, sent, acked, running, terminal;
  std::uint64_t id = 0;
  bool accepted = false;
  bool saw_running = false;
  bool saw_terminal = false;
  std::string status;
  std::string tier;
  std::string refusal;
  int attempt = 0;
  int polls = 0;
  Json result;
};

struct Session {
  std::vector<Req> reqs;
  Clock::time_point start;
  Clock::time_point end;
  std::string error;  ///< A load thread died (connection lost).
};

/// Open-loop drive: `jobs.size()` submissions at Poisson arrivals over
/// `seconds` (a Poisson process conditioned on its count: sorted uniform
/// arrival times, so every run spans the same window), the poller
/// following every accepted id to a terminal state.
Session drive(const std::string& socket, const std::vector<Job>& jobs,
              double seconds, std::uint64_t seed) {
  Session s;
  s.reqs.resize(jobs.size());
  Rng rng(derive_seed(seed, 0xa771));
  std::vector<double> offsets(jobs.size());
  for (double& o : offsets) o = rng.uniform_real(0.0, seconds);
  std::sort(offsets.begin(), offsets.end());
  s.start = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    s.reqs[k].job = jobs[k];
    s.reqs[k].due =
        s.start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(offsets[k]));
  }

  std::mutex mu;
  std::deque<std::size_t> arrivals;
  std::atomic<bool> generator_done{false};
  std::mutex error_mu;
  const auto record_error = [&](const std::string& what) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (s.error.empty()) s.error = what;
  };

  std::thread generator([&] {
    try {
      ServeClient client(socket);
      for (std::size_t k = 0; k < s.reqs.size(); ++k) {
        Req& r = s.reqs[k];
        std::this_thread::sleep_until(r.due);
        r.sent = Clock::now();
        const SubmitOutcome out = client.submit(r.job.spec, r.job.tenant);
        r.acked = Clock::now();
        r.accepted = out.accepted;
        if (!out.accepted) {
          r.refusal = out.error;
          continue;
        }
        r.id = out.id;
        std::lock_guard<std::mutex> lock(mu);
        arrivals.push_back(k);
      }
    } catch (const std::exception& e) {
      record_error(std::string("generator: ") + e.what());
    }
    generator_done.store(true, std::memory_order_release);
  });

  std::thread poller([&] {
    try {
      ServeClient client(socket);
      std::vector<std::size_t> active;
      std::optional<Clock::time_point> drain_deadline;
      const auto interval = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::milli>(kIdlePollMs));
      while (true) {
        const bool done_submitting =
            generator_done.load(std::memory_order_acquire);
        {
          std::lock_guard<std::mutex> lock(mu);
          active.insert(active.end(), arrivals.begin(), arrivals.end());
          arrivals.clear();
        }
        if (active.empty()) {
          if (done_submitting) break;
          std::this_thread::sleep_for(interval);
          continue;
        }
        if (done_submitting) {
          if (!drain_deadline) {
            drain_deadline = Clock::now() + std::chrono::seconds(
                                                static_cast<int>(kDrainTimeoutS));
          } else if (Clock::now() > *drain_deadline) {
            break;  // whatever is still active is lost
          }
        }
        std::size_t kept = 0;
        for (const std::size_t k : active) {
          Req& r = s.reqs[k];
          const Json st = client.status(r.id);
          const auto now = Clock::now();
          ++r.polls;
          const std::string& status = st.at("status").as_string();
          if (status == "running" && !r.saw_running) {
            r.saw_running = true;
            r.running = now;
          }
          if (status == "done" || status == "cancelled" ||
              status == "failed") {
            r.saw_terminal = true;
            r.terminal = now;
            r.status = status;
            r.tier = st.at("tier").as_string();
            r.attempt = static_cast<int>(st.at("attempt").as_int());
          } else {
            active[kept++] = k;
          }
        }
        active.resize(kept);
      }
    } catch (const std::exception& e) {
      record_error(std::string("poller: ") + e.what());
    }
  });
  generator.join();
  poller.join();
  s.end = s.start;
  for (const Req& r : s.reqs) {
    if (r.saw_terminal) s.end = std::max(s.end, r.terminal);
  }
  return s;
}

std::uintmax_t journal_bytes(const std::string& dir) {
  std::uintmax_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() &&
        entry.path().filename().string().rfind("journal", 0) == 0) {
      total += entry.file_size();
    }
  }
  return total;
}

/// A daemon whose socket and journal files are named `name` in `dir`.
ServeConfig daemon_config(const ScratchDir& dir, const std::string& name,
                          std::uint64_t seed) {
  ServeConfig cfg;
  cfg.socket_path = dir.path() + "/" + name + ".sock";
  cfg.journal_path = dir.path() + "/" + name;
  cfg.workers = kWorkers;
  cfg.base_seed = seed;
  cfg.emts_budget_seconds = 0.0;  // results independent of wall-clock
  return cfg;
}

/// Submit `jobs` one at a time and wait for each (untimed warm-up).
void warm_up(const std::string& socket, const std::vector<Job>& jobs,
             Gate& gate) {
  ServeClient client(socket);
  for (const Job& job : jobs) {
    const SubmitOutcome out = client.submit(job.spec, job.tenant);
    const auto st =
        out.accepted ? client.wait_terminal(out.id, kDrainTimeoutS, 0.0002)
                     : std::nullopt;
    gate.check(st.has_value() && st->at("status").as_string() == "done",
               "warm-up request did not finish done: " +
                   (st.has_value() ? st->dump() : out.error));
  }
}

/// Distinct computations among the done results: a request's result is a
/// pure function of (tenant, spec, attempt, tier), so equal keys must
/// carry equal results and one recomputation checks them all.
struct Key {
  Job job;
  int attempt = 1;
  std::string tier;
  std::vector<std::size_t> reqs;
  double lb_ratio = 0.0;
};

struct Recomputed {
  EmtsResult result;
  double call_ms = 0.0;
  double lower_bound = 0.0;
};

std::shared_ptr<const ProblemInstance> spec_instance(const JobSpec& spec) {
  auto graphs = corpus_by_name(spec.cls, spec.tasks, spec.corpus_index + 1,
                               spec.seed);
  return build_instance(std::move(graphs[spec.corpus_index]), spec.platform,
                        spec.model);
}

/// What the daemon runs at the emts tier for this key.
EmtsConfig key_emts_config(const Key& key, std::uint64_t base_seed) {
  EmtsConfig cfg = emts5_config();
  cfg.seed =
      request_seed(base_seed, key.job.tenant, key.job.spec, key.attempt);
  return cfg;
}

/// Recompute one key in-process, exactly as its tier ran in the daemon.
Recomputed recompute(const Key& key, std::uint64_t base_seed, Gate& gate,
                     std::shared_ptr<const ProblemInstance> instance = {}) {
  Recomputed out;
  if (instance == nullptr) instance = spec_instance(key.job.spec);
  out.lower_bound = make_case(instance).lower_bound;
  const auto t0 = Clock::now();
  if (key.tier == "emts") {
    out.result = Emts(key_emts_config(key, base_seed)).schedule(instance);
    out.call_ms = ms_between(t0, Clock::now());
    validate_result(*instance, out.result, gate);
    return out;
  }
  // Degraded tiers: best seed heuristic, or one CPA allocation.
  EvaluationEngine engine(instance);
  const std::vector<std::string> names =
      key.tier == "heuristic" ? std::vector<std::string>{"mcpa", "hcpa"}
                              : std::vector<std::string>{"cpa"};
  for (const std::string& name : names) {
    Allocation alloc = make_heuristic(name)->allocate(*instance);
    const double makespan = engine.evaluate_one(alloc);
    if (out.result.best_allocation.empty() || makespan < out.result.makespan) {
      out.result.best_allocation = std::move(alloc);
      out.result.makespan = makespan;
    }
  }
  out.call_ms = ms_between(t0, Clock::now());
  return out;
}

/// Does the daemon's result JSON equal the recomputation bit for bit?
bool same_result(const Json& served, const EmtsResult& local) {
  if (served.at("makespan").as_double() != local.makespan) return false;
  const JsonArray& alloc = served.at("allocation").as_array();
  if (alloc.size() != local.best_allocation.size()) return false;
  for (std::size_t i = 0; i < alloc.size(); ++i) {
    if (alloc[i].as_int() != local.best_allocation[i]) return false;
  }
  return true;
}

void check_key(const Key& key, const Session& s, const Recomputed& rc,
               Gate& gate) {
  for (const std::size_t k : key.reqs) {
    if (!same_result(s.reqs[k].result, rc.result)) {
      gate.fail("served result differs from its recomputation (request " +
                std::to_string(s.reqs[k].id) + ")");
    }
  }
}

/// One daemon session: set-up, open-loop load, the gate; traced runs then
/// time the served computations in-process for the layer breakdown.
void serve_session(const Options& opts, bool cold, Report& report,
                   Gate& gate) {
  const Load load = workload_load(cold);
  // Traced runs give 40% of their seconds to the in-process layer timing.
  const double seconds = opts.trace ? 0.6 * opts.seconds : opts.seconds;
  const ScratchDir dir;
  const ServeConfig cfg = daemon_config(dir, "journal", opts.seed);
  const ServeConfig history_cfg = daemon_config(dir, "history", opts.seed);
  const auto n = static_cast<std::size_t>(std::llround(load.rate * seconds));
  const std::vector<Job> jobs = request_jobs(opts, cold, n);

  // --- Set-up: daemon start with journal recovery. Every timed start
  // recovers the same journal, the records of kJournalHistory requests an
  // untimed daemon served first, and stops untimed. The starts are spread
  // over the session (a sampler thread, one start per slot), because the
  // host's speed changes over tens of seconds (NOTES.md, "End-to-end
  // metrics"). The request stream is the benchmark's own input, made
  // untimed.
  {
    ServeServer history(history_cfg);
    history.start();
    Options past = opts;
    past.seed = derive_seed(opts.seed, 0x415);
    warm_up(history_cfg.socket_path,
            request_jobs(past, cold, kJournalHistory), gate);
    history.stop();
  }
  std::vector<double> setups;
  std::string sampler_error;
  std::atomic<bool> sampling{true};
  std::thread sampler([&] {
    const auto start = Clock::now();
    try {
      for (std::size_t rep = 0; rep < kSetupReps && sampling.load(); ++rep) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            seconds * static_cast<double>(rep) /
                            static_cast<double>(kSetupReps))));
        const auto t0 = Clock::now();
        ServeServer daemon(history_cfg);
        daemon.start();
        setups.push_back(seconds_between(t0, Clock::now()));
      }
    } catch (const std::exception& e) {
      sampler_error = std::string("set-up daemon: ") + e.what();
    }
  });

  // The session's daemon: started and warmed untimed.
  auto server = std::make_unique<ServeServer>(cfg);
  server->start();
  warm_up(cfg.socket_path, warmup_jobs(opts, cold), gate);

  // --- Timed: the open-loop session. -----------------------------------
  const std::uintmax_t journal_before = journal_bytes(dir.path());
  Session s = drive(cfg.socket_path, jobs, seconds, opts.seed);
  sampling.store(false);
  sampler.join();
  if (!s.error.empty()) gate.check(false, s.error);
  if (!sampler_error.empty()) gate.check(false, sampler_error);

  // --- Untimed: results, daemon stats. ----------------------------------
  ServeClient client(cfg.socket_path);
  std::vector<double> result_ms;
  for (Req& r : s.reqs) {
    if (r.status != "done") continue;
    const auto t0 = Clock::now();
    r.result = client.result(r.id);
    result_ms.push_back(ms_between(t0, Clock::now()));
  }
  const Json stats = client.stats();
  const std::uintmax_t journal_after = journal_bytes(dir.path());
  server->stop();

  // Outcomes and the request-level gate. A served call's class is its
  // computation on serve-hot, its corpus shape on serve-cold (where every
  // request is a new computation).
  std::vector<double> submit_ms, late_ms, queue_ms, exec_ms, poll_gap_ms;
  std::vector<double> latency_ms;
  std::map<std::string, double> best_ms;  ///< Per class, emts tier only.
  double polls = 0.0;
  std::size_t accepted = 0;
  std::size_t done_count = 0;
  std::size_t emts_tier = 0;
  std::size_t good = 0;
  for (const Req& r : s.reqs) {
    gate.attempt();
    submit_ms.push_back(ms_between(r.sent, r.acked));
    late_ms.push_back(std::max(0.0, ms_between(r.due, r.sent)));
    if (!r.accepted) {
      gate.fail("submission refused: " + r.refusal);
      continue;
    }
    ++accepted;
    polls += r.polls;
    if (!r.saw_terminal) {
      gate.fail("request " + std::to_string(r.id) + " lost");
      continue;
    }
    if (r.status != "done") {
      gate.fail("request " + std::to_string(r.id) + " ended " + r.status);
      continue;
    }
    ++done_count;
    poll_gap_ms.push_back(ms_between(r.acked, r.terminal) / r.polls);
    const double latency = ms_between(r.due, r.terminal);
    latency_ms.push_back(latency);
    if (r.tier == "emts") {
      ++emts_tier;
      if (latency <= load.latency_limit_ms) ++good;
      const std::string cls =
          cold ? std::to_string(r.job.spec.corpus_index)
               : std::to_string(r.job.spec.fingerprint()) + "/" +
                     r.job.tenant + "/" + std::to_string(r.attempt);
      const auto [it, fresh] = best_ms.emplace(cls, latency);
      if (!fresh) it->second = std::min(it->second, latency);
    }
    if (r.saw_running) {
      queue_ms.push_back(ms_between(r.acked, r.running));
      exec_ms.push_back(ms_between(r.running, r.terminal));
    }
  }
  const double done = std::max<double>(1.0, static_cast<double>(done_count));
  const Json& pool = stats.at("engine_pool");
  const double pool_hits = pool.at("hits").as_double();
  const double pool_lookups = pool_hits + pool.at("misses").as_double();
  report.set("serve.submit_ms_p50", percentile(submit_ms, 50), "ms");
  report.set("serve.submit_ms_p99", percentile(submit_ms, 99), "ms");
  report.set("serve.queue_wait_ms_p50", percentile(queue_ms, 50), "ms");
  report.set("serve.exec_ms_p50", percentile(exec_ms, 50), "ms");
  report.set("serve.result_ms_p50", percentile(result_ms, 50), "ms");
  report.set("serve.poll_interval_ms", percentile(poll_gap_ms, 50), "ms");
  report.set("serve.polls_per_request",
             polls / std::max<double>(1.0, static_cast<double>(accepted)),
             "count");
  report.set("serve.tier_emts_frac", static_cast<double>(emts_tier) / done,
             "frac");
  report.set("serve.shed", stats.at("shed").as_double(), "count");
  report.set("serve.journal_bytes_per_request",
             static_cast<double>(journal_after - journal_before) /
                 std::max<double>(1.0, static_cast<double>(accepted)),
             "B");
  report.set("serve.server_p95_ms",
             1000.0 * stats.at("p95_latency_seconds").as_double(), "ms");
  report.set("loadgen.late_ms_p99", percentile(late_ms, 99), "ms");
  report.set("eval.pool_hit_frac",
             pool_lookups > 0.0 ? pool_hits / pool_lookups : 0.0, "frac");
  report.set("eval.pool_evictions", pool.at("evictions").as_double(),
             "count");
  report.set("serve.requests", static_cast<double>(s.reqs.size()), "count");
  // From the first due time to the last terminal status seen.
  const double elapsed = seconds_between(s.start, s.end);
  report.set("serve.elapsed_s", elapsed, "s");
  if (!exec_ms.empty() &&
      percentile(exec_ms, 50) < 5.0 * percentile(poll_gap_ms, 50)) {
    std::fprintf(stderr,
                 "perfbench: warning: poll interval %.3f ms exceeds a fifth "
                 "of the median exec time %.3f ms\n",
                 percentile(poll_gap_ms, 50), percentile(exec_ms, 50));
  }

  // --- Untimed: recompute every done result in-process. -----------------
  std::map<std::string, Key> by_key;
  for (std::size_t k = 0; k < s.reqs.size(); ++k) {
    const Req& r = s.reqs[k];
    if (r.status != "done") continue;
    if (r.result.at("seed").as_double() !=
        static_cast<double>(
            request_seed(opts.seed, r.job.tenant, r.job.spec, r.attempt))) {
      gate.fail("served seed is not request_seed(base, tenant, spec, attempt)");
    }
    const std::string id = std::to_string(r.job.spec.fingerprint()) + "/" +
                           r.job.tenant + "/" + std::to_string(r.attempt) +
                           "/" + r.tier;
    Key& key = by_key[id];
    key.job = r.job;
    key.attempt = r.attempt;
    key.tier = r.tier;
    key.reqs.push_back(k);
  }
  std::vector<Key> keys;
  for (auto& [id, key] : by_key) keys.push_back(std::move(key));
  if (keys.empty() || best_ms.empty()) {
    gate.check(false, "no request finished done at the emts tier");
    return;
  }

  // Every distinct computation, recomputed in parallel.
  std::atomic<std::size_t> next{0};
  std::mutex gate_mu;
  std::vector<std::thread> pool_threads;
  const std::size_t threads =
      std::max(1u, std::thread::hardware_concurrency());
  for (std::size_t t = 0; t < threads; ++t) {
    pool_threads.emplace_back([&] {
      for (std::size_t i = next++; i < keys.size(); i = next++) {
        Gate local;
        local.attempt();
        const Recomputed rc = recompute(keys[i], opts.seed, local);
        keys[i].lb_ratio = rc.result.makespan / rc.lower_bound;
        check_key(keys[i], s, rc, local);
        std::lock_guard<std::mutex> lock(gate_mu);
        gate.merge(local);
      }
    });
  }
  for (auto& t : pool_threads) t.join();
  double ratio_sum = 0.0;
  for (const Key& key : keys) {
    ratio_sum += key.lb_ratio * static_cast<double>(key.reqs.size());
  }

  // Traced runs: the served computations' schedule call, in-process, one
  // at a time for the rest of the run, each next to its traced twin
  // (alternating which goes first), for the layer breakdown.
  if (opts.trace) {
    std::vector<std::size_t> timed;
    for (std::size_t ki = 0; ki < keys.size() && timed.size() < kTimedKeys;
         ++ki) {
      if (keys[ki].tier == "emts") timed.push_back(ki);
    }
    LayerAccumulator layers;
    std::vector<std::shared_ptr<const ProblemInstance>> instances(timed.size());
    const auto start = Clock::now();
    for (std::size_t i = 0;
         !timed.empty() &&
         (i < timed.size() ||
          seconds_between(start, Clock::now()) < opts.seconds - seconds);
         ++i) {
      const std::size_t t = i % timed.size();
      const Key& key = keys[timed[t]];
      if (instances[t] == nullptr) {
        const auto t0 = Clock::now();
        instances[t] = spec_instance(key.job.spec);
        layers.add_instance_build(ms_between(t0, Clock::now()));
      }
      const bool traced_first = i % 2 == 1;
      LayerTimes times;
      EmtsResult traced;
      const auto run_traced = [&] {
        traced = traced_schedule(instances[t], key_emts_config(key, opts.seed),
                                 times);
      };
      if (traced_first) run_traced();
      const Recomputed rc = recompute(key, opts.seed, gate, instances[t]);
      if (!traced_first) run_traced();
      layers.add_pair(rc.result, rc.call_ms, traced, times, gate);
    }
    layers.report(report, gate);
  }

  // End-to-end. The served call time is each class's fastest request,
  // from its due time to the terminal status seen by the client: the
  // daemon's whole path (protocol, admission, journal appends, queue,
  // engine pool, EMTS, polling) undisturbed by slow periods of the host.
  std::vector<double> class_ms;
  double class_sum_ms = 0.0;
  for (const auto& [cls, ms] : best_ms) {
    class_ms.push_back(ms);
    class_sum_ms += ms;
  }
  report.set("schedule_ms_p50", percentile(class_ms, 50), "ms");
  report.set("schedule_ms_p90", percentile(class_ms, 90), "ms");
  report.set("schedules_per_s",
             1000.0 * static_cast<double>(class_ms.size()) / class_sum_ms,
             "1/s");
  report.set("goodput_rps", static_cast<double>(good) / elapsed, "1/s");
  report.set("makespan_over_lb", ratio_sum / done, "ratio");
  report.set("setup_s", median(setups), "s");
  report.set("request_ms_p50", percentile(latency_ms, 50), "ms");
  report.set("request_ms_p99", percentile(latency_ms, 99), "ms");
}

}  // namespace

void run_serve_workload(const Options& opts, Report& report, Gate& gate) {
  const bool cold = opts.workload == "serve-cold";
  serve_session(opts, cold, report, gate);
  // Same seed, same request stream: the workload digest self-test.
  const auto n = static_cast<std::size_t>(
      std::llround(workload_load(cold).rate * opts.seconds));
  Digest a, b;
  for (const Job& j : request_jobs(opts, cold, n)) {
    a.add(j.spec.fingerprint());
    a.add(fnv1a64(j.tenant));
  }
  for (const Job& j : request_jobs(opts, cold, n)) {
    b.add(j.spec.fingerprint());
    b.add(fnv1a64(j.tenant));
  }
  gate.check(a.hex() == b.hex(), "same seed generated different requests");
  // The committed reference: the hot specs at a fixed seed, recomputed.
  Digest ref;
  for (const JobSpec& spec : hot_specs()) {
    Key key;
    key.job = {spec, tenant_name(0)};
    key.tier = "emts";
    gate.attempt();
    const Recomputed rc = recompute(key, kReferenceSeed, gate);
    ref.add(rc.result.makespan);
    ref.add(rc.result.best_allocation);
  }
  const std::string want = reference_digest("serve");
  std::fprintf(stderr, "perfbench: reference digest serve = %s\n",
               ref.hex().c_str());
  gate.check(ref.hex() == want, "serve reference digest " + ref.hex() +
                                    " != committed " + want);
}

}  // namespace perfbench
