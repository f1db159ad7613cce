#include "analysis/interface_selection.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "analysis/selection_cache.hpp"

namespace bluescale::analysis {

std::uint64_t theorem2_max_period(const task_set& tasks,
                                  double level_utilization) {
    const std::uint64_t t_min = min_period(tasks);
    if (t_min == 0) return 0;
    const double slack = level_utilization - utilization(tasks);
    if (slack <= 0.0) return t_min;
    const double bound = static_cast<double>(t_min) / (2.0 * slack);
    if (bound >= static_cast<double>(t_min)) return t_min;
    return static_cast<std::uint64_t>(std::floor(bound));
}

std::optional<std::uint64_t>
min_budget_for_period(const task_set& tasks, std::uint64_t period,
                      const analysis_context& ctx) {
    return sched_kernel(tasks, ctx.sched).min_budget(period);
}

namespace {

/// The search proper. `pi_max` is the period bound select_interface
/// derives from the level utilization -- the only way that utilization
/// reaches the search, which is what lets the selection cache key on it.
std::optional<resource_interface>
select_interface_uncached(const task_set& tasks, std::uint64_t pi_max,
                          const analysis_context& ctx) {
    if (tasks.empty()) return resource_interface{0, 0};
    if (pi_max == 0) return std::nullopt;

    // Prepared once: every probe below tests this task set.
    const sched_kernel kernel(tasks, ctx.sched);
    const double u = kernel.utilization();
    const double tol = std::max(0.0, ctx.bandwidth_tolerance);
    std::vector<resource_interface> candidates;
    double best_bw = 2.0; // anything beats this

    for (std::uint64_t pi = 1; pi <= pi_max; ++pi) {
        // Cheapest budget this period could possibly achieve; skip the
        // binary search when it cannot land within tolerance of the best
        // bandwidth found so far.
        const auto theta_floor =
            static_cast<std::uint64_t>(
                std::floor(u * static_cast<double>(pi))) +
            1;
        if (theta_floor > pi) continue;
        const double bw_floor =
            static_cast<double>(theta_floor) / static_cast<double>(pi);
        if (bw_floor >= best_bw * (1.0 + tol) + 1e-12) continue;

        const auto theta = kernel.min_budget(pi);
        if (!theta) continue;
        const resource_interface candidate{pi, *theta};
        candidates.push_back(candidate);
        best_bw = std::min(best_bw, candidate.bandwidth());
    }
    if (candidates.empty()) return std::nullopt;

    // Paper-faithful: strict minimum bandwidth, ties toward smaller Pi
    // (the enumeration order). With a tolerance, prefer the largest
    // period within (1 + tol) of the minimum: the resulting server task
    // is a friendlier task for the parent level (larger T relaxes the
    // sbf-blackout and Theorem-2 constraints up the tree).
    std::optional<resource_interface> best;
    for (const auto& c : candidates) {
        const double bw = c.bandwidth();
        if (bw > best_bw * (1.0 + tol) + 1e-12) continue;
        if (!best) {
            best = c;
        } else if (tol > 0.0 ? c.period > best->period
                             : bw < best->bandwidth() - 1e-12) {
            best = c;
        }
    }
    return best;
}

} // namespace

std::optional<resource_interface>
select_interface(const task_set& tasks, double level_utilization,
                 const analysis_context& ctx) {
    const std::uint64_t pi_max = std::min(
        theorem2_max_period(tasks, level_utilization), ctx.max_period);
    if (ctx.cache == nullptr) {
        return select_interface_uncached(tasks, pi_max, ctx);
    }

    const selection_key key = make_selection_key(tasks, pi_max, ctx);
    if (auto hit = ctx.cache->lookup(key)) {
        if (ctx.sched.stats != nullptr) {
            ++ctx.sched.stats->cache_hits;
            *ctx.sched.stats += hit->work; // replay the original work
        }
        return hit->iface;
    }

    // Compute with a private stats sink so the entry can replay the exact
    // work on later hits, keeping totals identical with the cache on/off.
    sched_test_stats work;
    analysis_context local = ctx;
    local.cache = nullptr;
    local.sched.stats = &work;
    const auto iface = select_interface_uncached(tasks, pi_max, local);
    ctx.cache->insert(key, selection_entry{iface, work});
    if (ctx.sched.stats != nullptr) {
        ++ctx.sched.stats->cache_misses;
        *ctx.sched.stats += work;
    }
    return iface;
}

} // namespace bluescale::analysis
