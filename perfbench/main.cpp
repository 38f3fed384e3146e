// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload of BENCHMARK.json (read from the working directory,
// the checkout root) and prints, as the last line of standard output, one
// JSON object {"correct", "attempted", "failed", "metrics"}: every
// end_to_end metric with --trace 0, every per_layer metric with --trace 1.
// perfbench/run.py builds this binary and forwards its arguments.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "daggen/corpus.hpp"
#include "eval/evaluation_engine.hpp"
#include "support/json.hpp"
#include "workloads.hpp"

using namespace perfbench;
using namespace ptgsched;

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1\n",
               why.c_str());
  std::exit(2);
}

const char* kernel_name(KernelMode m) {
  switch (m) {
    case KernelMode::Full: return "full";
    case KernelMode::Incremental: return "incremental";
    case KernelMode::Batched: return "batched";
  }
  return "?";
}

/// The kernel an engine resolves when the caller sets none.
KernelMode default_kernel() {
  auto instance = build_instance(irregular_corpus(10, 1, 1).front(), "chti",
                                 "model1");
  return EvaluationEngine(instance).kernel_mode();
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  bool trace_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        opts.workload = val;
      } else if (arg == "--seed") {
        opts.seed = std::stoull(val);
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(val);
      } else if (arg == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        opts.trace = val == "1";
        trace_given = true;
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + val);
    }
  }
  if (opts.workload.empty() || !trace_given || !(opts.seconds > 0.0)) {
    usage("--workload, --seconds and --trace are required");
  }
  // The benchmark measures the default users get.
  if (const char* env = std::getenv("PTGSCHED_KERNEL");
      env != nullptr && *env != '\0') {
    usage("refusing to run with PTGSCHED_KERNEL set");
  }

  try {
    const Json spec = Json::parse_file("BENCHMARK.json");
    bool known = false;
    for (const Json& w : spec.at("workloads").as_array()) {
      known = known || w.at("name").as_string() == opts.workload;
    }
    if (!known) usage("unknown workload " + opts.workload);

    Report report;
    Gate gate;
    const bool serve = opts.workload.rfind("serve-", 0) == 0;
    std::printf(
        "{\"perfbench\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
        "\"kernel\": \"%s\"}}\n",
        opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
        opts.trace ? 1 : 0, kernel_name(default_kernel()));
    std::fflush(stdout);

    if (serve) {
      run_serve_workload(opts, report, gate);
    } else if (opts.workload.rfind("emts10-", 0) == 0) {
      run_emts_workload(opts, report, gate);
    } else {
      usage("no runner for workload " + opts.workload);
    }
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    report.set("error_frac",
               static_cast<double>(gate.failed()) /
                   static_cast<double>(std::max<std::size_t>(1, gate.attempted())),
               "frac");

    std::string metrics;
    const char* section = opts.trace ? "per_layer" : "end_to_end";
    for (const Json& m : spec.at(section).as_array()) {
      const std::string& name = m.at("name").as_string();
      const std::string& unit = m.at("unit").as_string();
      // A layer the workload does not have (a daemon's, on an EMTS
      // workload) reads 0.
      if (!report.has(name) && report.not_applicable(name)) {
        report.set(name, 0.0, unit);
      }
      if (!report.has(name) || report.unit(name) != unit) {
        std::fprintf(stderr, "perfbench: metric %s [%s] not measured\n",
                     name.c_str(), unit.c_str());
        return 3;
      }
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    metrics.empty() ? "" : ", ", name.c_str(),
                    report.value(name), unit.c_str());
      metrics += buf;
    }
    std::printf(
        "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
        "{%s}}\n",
        gate.correct() ? "true" : "false", std::max<std::size_t>(1, gate.attempted()),
        gate.failed(), metrics.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
