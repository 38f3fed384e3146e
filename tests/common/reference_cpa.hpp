#pragma once
// Reference CPA loops — the from-scratch CPA-family allocation procedures,
// preserved as the oracle for the incremental CriticalPathTracker the
// library's heuristics run on.
//
// Every loop here recomputes the bottom levels with a full reverse
// topological sweep and re-derives the critical path with a second sweep
// through critical_path(g, fn), once per granted processor, exactly as the
// heuristics did before their bottom levels became incremental. Nothing
// here is tuned; its only job is the differential tests: CPA, HCPA, MCPA,
// MCPA2 and BiCPA must return identical allocations on every input. It
// lives with the tests and is not part of the installed library.

#include "core/problem_instance.hpp"
#include "sched/allocation.hpp"
#include "sched/list_scheduler.hpp"

namespace ptgsched {

/// CPA (level_bound = false; also HCPA on one homogeneous cluster) or MCPA
/// (level_bound = true).
[[nodiscard]] Allocation reference_cpa(const ProblemInstance& pi,
                                       bool level_bound);

/// MCPA plus MCPA2's per-level post pass.
[[nodiscard]] Allocation reference_mcpa2(const ProblemInstance& pi);

/// BiCPA's sweep over virtual cluster sizes 1, 1 + stride, ... (plus P),
/// each candidate mapped with a ListScheduler under `mapping`.
[[nodiscard]] Allocation reference_bicpa(const ProblemInstance& pi,
                                         int stride,
                                         ListSchedulerOptions mapping = {});

}  // namespace ptgsched
