#pragma once
// The workloads (see perfbench/NOTES.md for why each exists).

#include <string>

#include "common.hpp"

namespace perfbench {

/// emts10-n100: back-to-back Emts::schedule calls.
void run_emts_workload(const Options& opts, Report& report, Gate& gate);

/// serve-hot / serve-cold: open-loop load on an in-process daemon.
void run_serve_workload(const Options& opts, Report& report, Gate& gate);

}  // namespace perfbench
