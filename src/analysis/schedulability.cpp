#include "analysis/schedulability.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace bluescale::analysis {

double theorem1_beta(const resource_interface& iface,
                     double task_utilization) {
    const double bw = iface.bandwidth();
    if (bw <= task_utilization) return 0.0;
    const double gap =
        static_cast<double>(iface.period) - static_cast<double>(iface.budget);
    return 2.0 * bw * gap / (bw - task_utilization);
}

namespace {

/// Integer test horizon ceil(beta) + 1, saturated at the largest value:
/// beta explodes as the interface bandwidth approaches the utilization
/// (past 2^64 when they are an ulp apart), and converting an
/// out-of-range double is undefined.
std::uint64_t test_horizon(double beta) {
    if (!(beta < 0x1p64)) return std::numeric_limits<std::uint64_t>::max();
    // A double below 2^64 is at most 2^64 - 2048, so the + 1 cannot wrap.
    return static_cast<std::uint64_t>(std::ceil(beta)) + 1;
}

} // namespace

sched_kernel::sched_kernel(const task_set& tasks,
                           const sched_test_config& cfg)
    : tasks_(tasks), cfg_(cfg), u_(analysis::utilization(tasks)),
      mu_(cfg.maintenance.utilization()), burst_(cfg.maintenance.burst()) {
    for (const auto& task : tasks) {
        if (task.wcet == 0 || task.period == 0) continue;
        if (min_period_ == 0 || task.period < min_period_) {
            min_period_ = task.period;
        }
        if (cfg.cheap_first) {
            breakpoints_.push_back({task.period, task.utilization()});
        }
    }
    // Each entry starts with its task's own utilization. Sum in (period,
    // utilization) order and keep the running total at the last task of
    // each period: every task activated by t = period counts, and the
    // doubles match a per-probe sorted summation.
    std::sort(breakpoints_.begin(), breakpoints_.end(),
              [](const breakpoint& a, const breakpoint& b) {
                  return a.period != b.period ? a.period < b.period
                                              : a.u_acc < b.u_acc;
              });
    double u_acc = 0.0;
    std::size_t kept = 0;
    for (const auto& bp : breakpoints_) {
        u_acc += bp.u_acc;
        if (kept > 0 && breakpoints_[kept - 1].period == bp.period) {
            breakpoints_[kept - 1].u_acc = u_acc;
        } else {
            breakpoints_[kept++] = {bp.period, u_acc};
        }
    }
    breakpoints_.resize(kept);
}

bool sched_kernel::fails_necessary(const resource_interface& iface) const {
    if (iface.period == 0 || iface.budget == 0) return true;
    if (iface.bandwidth() * (1.0 - mu_) <= u_) return true;

    // No task may have a period shorter than the worst-case supply delay
    // (sbf is 0 up to 2(Pi - Theta)), otherwise its first job can miss.
    const std::uint64_t blackout = 2 * (iface.period - iface.budget);
    for (const auto& task : tasks_) {
        if (task.wcet > 0 && task.period < blackout + task.wcet) {
            // sbf(period) < wcet is guaranteed: cheap necessary filter.
            if (maintenance_sbf(task.period, iface, cfg_.maintenance) <
                task.wcet) {
                return true;
            }
        }
    }
    return false;
}

sched_result sched_kernel::sufficient(const resource_interface& iface) const {
    assert(cfg_.cheap_first); // otherwise the breakpoints are unprepared
    if (cfg_.stats != nullptr) ++cfg_.stats->tests_run;
    if (tasks_.empty()) return sched_result::schedulable;
    if (fails_necessary(iface)) return sched_result::unschedulable;

    // Horizon collapse: Theorem 1 confines violations to t <= beta, and
    // dbf steps only at period multiples, so a minimum period beyond beta
    // leaves nothing to check.
    const double beta = maintenance_beta(iface, u_, cfg_.maintenance);
    if (min_period_ == 0 || static_cast<double>(min_period_) > beta) {
        return sched_result::schedulable;
    }

    // Linear demand vs. linear supply. dbf(t) <= sum_{T_i <= t} U_i * t
    // (floor(t/T_i)*C_i <= U_i*t, and a task contributes nothing before
    // its first period). The supply obeys
    //   sbf_m(t) >= bw*((1 - mu)*t - burst - 2*(Pi - Theta))
    // (see maintenance_beta). Between distinct periods the demand bound's
    // slope is at most u < bw*(1 - mu), so the supply-demand margin only
    // shrinks at the period breakpoints -- checking each one covers all t.
    const double bw = iface.bandwidth();
    const double offset =
        static_cast<double>(burst_) +
        static_cast<double>(2 * (iface.period - iface.budget));
    for (const auto& bp : breakpoints_) {
        if (cfg_.stats != nullptr) ++cfg_.stats->points_checked;
        const auto p = static_cast<double>(bp.period);
        if (bp.u_acc * p > bw * ((1.0 - mu_) * p - offset)) {
            return sched_result::aborted; // undecided: no proof either way
        }
    }
    return sched_result::schedulable;
}

sched_result sched_kernel::exact(const resource_interface& iface) const {
    if (cfg_.stats != nullptr) ++cfg_.stats->tests_run;
    if (tasks_.empty()) return sched_result::schedulable;
    if (fails_necessary(iface)) return sched_result::unschedulable;

    // Testing slightly beyond beta is sound (a violation past beta implies
    // one before it), so round the horizon up. Most probes end here: with
    // the horizon below the minimum period there is no point to check.
    const std::uint64_t horizon =
        test_horizon(maintenance_beta(iface, u_, cfg_.maintenance));
    if (min_period_ == 0 || horizon < min_period_) {
        return sched_result::schedulable;
    }

    // Bound the work before enumerating.
    std::uint64_t point_estimate = 0;
    for (const auto& task : tasks_) {
        if (task.period == 0 || task.wcet == 0) continue;
        point_estimate += horizon / task.period;
        if (point_estimate > cfg_.max_test_points) {
            return sched_result::aborted;
        }
    }

    // Walk the dbf step points (the multiples of every active period) in
    // ascending order. One pass over the tasks per point yields dbf(t)
    // and the next point, so an early violation never pays for the points
    // after it.
    for (std::uint64_t t = min_period_; t != 0;) {
        if (cfg_.stats != nullptr) ++cfg_.stats->points_checked;
        std::uint64_t demand = 0;
        std::uint64_t next = 0; // none yet
        for (const auto& task : tasks_) {
            if (task.period == 0) continue;
            const std::uint64_t jobs = t / task.period;
            demand += jobs * task.wcet;
            // The task's next multiple, unless it lies past the horizon
            // (checked without overflowing).
            const std::uint64_t last = jobs * task.period;
            if (task.wcet > 0 && horizon - last >= task.period &&
                (next == 0 || last + task.period < next)) {
                next = last + task.period;
            }
        }
        if (demand > maintenance_sbf(t, iface, cfg_.maintenance)) {
            return sched_result::unschedulable;
        }
        t = next;
    }
    return sched_result::schedulable;
}

sched_result sched_kernel::test(const resource_interface& iface) const {
    if (cfg_.cheap_first) {
        // Cheap-first ladder: both rungs are sound, so the portfolio's
        // verdict (when it has one) is final and the exact enumeration is
        // skipped entirely. Only `aborted` (undecided) falls through.
        const sched_result quick = sufficient(iface);
        if (quick != sched_result::aborted) {
            if (cfg_.stats != nullptr) ++cfg_.stats->ladder_cheap_decided;
            return quick;
        }
        if (cfg_.stats != nullptr) ++cfg_.stats->ladder_exact_fallbacks;
    }
    return exact(iface);
}

sched_result is_schedulable_sufficient(const task_set& tasks,
                                       const resource_interface& iface,
                                       const sched_test_config& cfg) {
    sched_test_config portfolio = cfg;
    portfolio.cheap_first = true;
    return sched_kernel(tasks, portfolio).sufficient(iface);
}

sched_result is_schedulable(const task_set& tasks,
                            const resource_interface& iface,
                            const sched_test_config& cfg) {
    return sched_kernel(tasks, cfg).test(iface);
}

} // namespace bluescale::analysis
