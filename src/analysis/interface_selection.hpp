// Interface selection algorithm (paper Sec. 5): for one Virtual Element,
// find the (Pi, Theta) pair with minimum bandwidth Theta/Pi such that the
// VE's task set stays EDF-schedulable on the periodic supply.
#pragma once

#include <cstdint>
#include <optional>

#include "analysis/analysis_context.hpp"
#include "analysis/periodic_resource.hpp"
#include "analysis/rt_task.hpp"
#include "analysis/schedulability.hpp"

namespace bluescale::analysis {

/// Theorem 2's necessary upper bound on Pi_X:
///   Pi_X <= min_{tau_i in T_X} T_i / (2 (U_level - U_X))
/// where U_level is the total utilization of *all* tasks at this level
/// (across sibling VEs) and U_X that of T_X alone. When U_level == U_X the
/// bound is vacuous and min period is returned (a larger Pi cannot reduce
/// bandwidth below what some Pi <= min T_i achieves, since the supply
/// blackout 2(Pi - Theta) must stay under the smallest period).
///
/// The result never exceeds t_min = min T_i, and it equals t_min whenever
/// the level slack U_level - U_X is at most 0.5: the level utilization
/// changes the bound only when slack > 0.5.
[[nodiscard]] std::uint64_t theorem2_max_period(const task_set& tasks,
                                                double level_utilization);

/// Minimum schedulable budget for a fixed period, found by binary search
/// (schedulability is monotone in Theta). Returns nullopt when even
/// Theta == Pi is unschedulable. Uses ctx.sched only.
[[nodiscard]] std::optional<std::uint64_t>
min_budget_for_period(const task_set& tasks, std::uint64_t period,
                      const analysis_context& ctx = {});

/// Full interface selection for one VE: enumerate feasible periods
/// (1 .. Theorem-2 bound), binary-search the budget for each, and return
/// the minimum-bandwidth interface (ties broken toward smaller Pi, which
/// minimizes supply jitter). Returns nullopt when no feasible pair exists.
///
/// An empty task set yields the null interface {0, 0} (bandwidth 0).
///
/// The level utilization enters only through the search's period bound
/// min(theorem2_max_period(tasks, level_utilization), ctx.max_period).
/// With ctx.cache set, the result (and the sched_test_stats work the
/// computation performed, replayed into ctx.sched.stats on a hit) is
/// memoized on that bound, the task set and the other knobs -- see
/// selection_cache.hpp for why the key is exact, why no invalidation is
/// needed and why the result is bit-identical either way.
[[nodiscard]] std::optional<resource_interface>
select_interface(const task_set& tasks, double level_utilization,
                 const analysis_context& ctx = {});

} // namespace bluescale::analysis
