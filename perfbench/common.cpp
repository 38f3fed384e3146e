#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>

#include "model/execution_time.hpp"
#include "platform/cluster.hpp"
#include "sched/lower_bounds.hpp"
#include "sched/validate.hpp"
#include "support/json.hpp"

namespace perfbench {

using namespace ptgsched;

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50); }

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {value, unit};
}

bool Report::has(const std::string& name) const {
  return metrics_.count(name) != 0;
}

double Report::value(const std::string& name) const {
  return metrics_.at(name).first;
}

const std::string& Report::unit(const std::string& name) const {
  return metrics_.at(name).second;
}

bool Report::not_applicable(const std::string& name) const {
  return std::any_of(not_applicable_.begin(), not_applicable_.end(),
                     [&](const std::string& prefix) {
                       return name.rfind(prefix, 0) == 0;
                     });
}

void Gate::fail(const std::string& why) {
  ++failed_;
  if (printed_ < 10) {
    ++printed_;
    std::fprintf(stderr, "perfbench: gate failure: %s\n", why.c_str());
  }
}

void Gate::check(bool ok, const std::string& why) {
  if (!ok) {
    attempt();
    fail(why);
  }
}

void Digest::add_bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(const Allocation& a) {
  add(static_cast<std::uint64_t>(a.size()));
  for (const int p : a) add(static_cast<std::uint64_t>(p));
}

void Digest::add(const Ptg& g) {
  add(static_cast<std::uint64_t>(g.num_tasks()));
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    const Task& t = g.task(v);
    add(t.flops);
    add(t.data_size);
    add(t.alpha);
    for (const TaskId s : g.successors(v)) add(static_cast<std::uint64_t>(s));
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

std::shared_ptr<const ProblemInstance> build_instance(
    Ptg g, const std::string& platform, const std::string& model) {
  auto instance = ProblemInstance::create(
      std::make_shared<const Ptg>(std::move(g)), make_model(model),
      std::make_shared<const Cluster>(platform_by_name(platform)));
  instance->warm();
  return instance;
}

Case make_case(std::shared_ptr<const ProblemInstance> instance) {
  Case c;
  c.lower_bound = makespan_lower_bounds(instance->graph(), instance->model(),
                                        instance->cluster())
                      .combined();
  c.instance = std::move(instance);
  return c;
}

bool validate_result(const ProblemInstance& instance, const EmtsResult& r,
                     Gate& gate) {
  try {
    validate_schedule(r.schedule, instance.graph(), r.best_allocation,
                      instance.model(), instance.cluster());
  } catch (const std::exception& e) {
    gate.fail(std::string("invalid schedule: ") + e.what());
    return false;
  }
  if (r.schedule.makespan() != r.makespan) {
    gate.fail("schedule makespan disagrees with the reported makespan");
    return false;
  }
  return true;
}

std::string reference_digest(const std::string& key) {
  static const Json ref = Json::parse_file("perfbench/reference.json");
  return ref.contains(key) ? ref.at(key).as_string() : std::string();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

ScratchDir::ScratchDir() {
  // Relative to the checkout root, so the AF_UNIX socket path stays
  // short wherever the checkout lives.
  path_ = ".bench_build/run-" + std::to_string(::getpid());
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

}  // namespace perfbench
