#include "analysis/schedulability.hpp"

#include <algorithm>
#include <array>
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
      one_minus_mu_(1.0 - cfg.maintenance.utilization()),
      burst_(static_cast<double>(cfg.maintenance.burst())),
      no_maintenance_(cfg.maintenance.empty()) {
    for (const auto& task : tasks) {
        if (task.wcet == 0 || task.period == 0) continue;
        ++n_active_;
        if (min_period_ == 0 || task.period < min_period_) {
            min_period_ = task.period;
        }
        if (cfg.cheap_first) {
            breakpoints_.push_back({task.period, task.utilization()});
        }
    }
    if (n_active_ > 0) cap_per_task_ = cfg.max_test_points / n_active_;
    if (n_active_ > k_stack_cursors) cursors_.resize(n_active_);
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

// The parts of a probe are forced inline: GCC's -O2 heuristics keep them
// out of line even when declared inline, and a depth-4 tree runs ~10^7
// probes. Inlined into test() and min_budget()'s search, they ran
// perfbench admission-d4 ~30% faster than as calls (RelWithDebInfo, 4
// paired runs per step on a 4-core x86-64 VM).

[[gnu::always_inline]] inline std::uint64_t
sched_kernel::supply(std::uint64_t t, const resource_interface& iface) const {
    if (!no_maintenance_) {
        const std::uint64_t theft = cfg_.maintenance.stolen(t);
        t = t > theft ? t - theft : 0;
    }
    // sbf() for a nonzero period and budget.
    const std::uint64_t gap = iface.period - iface.budget;
    if (t < gap) return 0;
    const std::uint64_t t_prime = t - gap;
    if (t_prime < iface.period) {
        return t_prime > gap ? std::min(t_prime - gap, iface.budget) : 0;
    }
    const std::uint64_t whole_periods = t_prime / iface.period;
    const std::uint64_t remainder = t_prime - whole_periods * iface.period;
    const std::uint64_t eps = remainder > gap ? remainder - gap : 0;
    return whole_periods * iface.budget + std::min(eps, iface.budget);
}

[[gnu::always_inline]] inline bool
sched_kernel::fails_necessary(const resource_interface& iface,
                              theorem1_terms& terms) const {
    if (iface.period == 0 || iface.budget == 0) return true;
    assert(iface.budget <= iface.period);

    // No task may have a period shorter than the worst-case supply delay
    // (sbf is 0 up to 2(Pi - Theta)), otherwise its first job can miss.
    const std::uint64_t blackout = 2 * (iface.period - iface.budget);
    for (const auto& task : tasks_) {
        if (task.wcet > 0 && task.period < blackout + task.wcet &&
            supply(task.period, iface) < task.wcet) {
            return true; // sbf(period) < wcet: the first job misses
        }
    }

    // bw*(1 - mu) > U, and Theorem 1's bound (maintenance_beta).
    terms.bw = static_cast<double>(iface.budget) /
               static_cast<double>(iface.period);
    const double rate = terms.bw * one_minus_mu_;
    if (rate <= u_) return true;
    const double gap =
        static_cast<double>(iface.period) - static_cast<double>(iface.budget);
    terms.beta = terms.bw * (burst_ + 2.0 * gap) / (rate - u_);
    return false;
}

[[gnu::always_inline]] inline sched_result
sched_kernel::linear(const resource_interface& iface,
                     const theorem1_terms& terms) const {
    // Horizon collapse: Theorem 1 confines violations to t <= beta, and
    // dbf steps only at period multiples, so a minimum period beyond beta
    // leaves nothing to check.
    if (min_period_ == 0 || static_cast<double>(min_period_) > terms.beta) {
        return sched_result::schedulable;
    }

    // Linear demand vs. linear supply. dbf(t) <= sum_{T_i <= t} U_i * t
    // (floor(t/T_i)*C_i <= U_i*t, and a task contributes nothing before
    // its first period). The supply obeys
    //   sbf_m(t) >= bw*((1 - mu)*t - burst - 2*(Pi - Theta))
    // (see maintenance_beta). Between distinct periods the demand bound's
    // slope is at most u < bw*(1 - mu), so the supply-demand margin only
    // shrinks at the period breakpoints -- checking each one covers all t.
    const double offset =
        burst_ + static_cast<double>(2 * (iface.period - iface.budget));
    std::uint64_t points = 0;
    sched_result verdict = sched_result::schedulable;
    for (const auto& bp : breakpoints_) {
        ++points;
        const auto p = static_cast<double>(bp.period);
        if (bp.u_acc * p > terms.bw * (one_minus_mu_ * p - offset)) {
            verdict = sched_result::aborted; // undecided: no proof either way
            break;
        }
    }
    if (cfg_.stats != nullptr) cfg_.stats->points_checked += points;
    return verdict;
}

[[gnu::always_inline]] inline sched_result
sched_kernel::walk(const resource_interface& iface,
                   const theorem1_terms& terms) const {
    // Testing slightly beyond beta is sound (a violation past beta implies
    // one before it), so round the horizon up. Most probes end here: with
    // the horizon below the minimum period there is no point to check.
    const std::uint64_t horizon = test_horizon(terms.beta);
    if (min_period_ == 0 || horizon < min_period_) {
        return sched_result::schedulable;
    }

    // Bound the work before enumerating: sum_i floor(horizon / T_i) points
    // at most. n * floor(horizon / T_min) bounds that sum, so one division
    // clears the cap unless the bound exceeds it.
    if (horizon / min_period_ > cap_per_task_) {
        std::uint64_t point_estimate = 0;
        for (const auto& task : tasks_) {
            if (task.period == 0 || task.wcet == 0) continue;
            point_estimate += horizon / task.period;
            if (point_estimate > cfg_.max_test_points) {
                return sched_result::aborted;
            }
        }
    }

    // Walk the dbf step points (the multiples of every active period up
    // to the horizon) in ascending order. Each cursor holds its task's
    // next multiple, so a point adds the wcet of the tasks stepping there
    // and finds the next point without a division; a task retires once
    // its next multiple lies past the horizon (checked without
    // overflowing). An early violation never pays for the points after
    // it.
    std::array<cursor, k_stack_cursors> stack{};
    cursor* const live =
        n_active_ <= k_stack_cursors ? stack.data() : cursors_.data();
    std::size_t n_live = 0;
    for (const auto& task : tasks_) {
        if (task.period != 0 && task.wcet != 0 && task.period <= horizon) {
            live[n_live++] = {task.period, task.wcet, task.period};
        }
    }
    std::uint64_t demand = 0;
    std::uint64_t points = 0;
    sched_result verdict = sched_result::schedulable;
    for (std::uint64_t t = min_period_;;) {
        ++points;
        std::uint64_t next = std::numeric_limits<std::uint64_t>::max();
        for (std::size_t i = 0; i < n_live;) {
            cursor& c = live[i];
            if (c.next == t) {
                demand += c.wcet;
                if (horizon - t < c.period) {
                    c = live[--n_live]; // retire; revisit slot i
                    continue;
                }
                c.next = t + c.period;
            }
            next = std::min(next, c.next);
            ++i;
        }
        if (demand > supply(t, iface)) {
            verdict = sched_result::unschedulable;
            break;
        }
        if (n_live == 0) break;
        t = next;
    }
    if (cfg_.stats != nullptr) cfg_.stats->points_checked += points;
    return verdict;
}

sched_result sched_kernel::sufficient(const resource_interface& iface) const {
    assert(cfg_.cheap_first); // otherwise the breakpoints are unprepared
    if (cfg_.stats != nullptr) ++cfg_.stats->tests_run;
    if (tasks_.empty()) return sched_result::schedulable;
    theorem1_terms terms;
    if (fails_necessary(iface, terms)) return sched_result::unschedulable;
    return linear(iface, terms);
}

[[gnu::always_inline]] inline sched_result
sched_kernel::probe(const resource_interface& iface) const {
    sched_test_stats* const stats = cfg_.stats;
    if (stats != nullptr) ++stats->tests_run;
    theorem1_terms terms;
    sched_result verdict = sched_result::aborted; // undecided so far
    if (tasks_.empty()) {
        verdict = sched_result::schedulable;
    } else if (fails_necessary(iface, terms)) {
        verdict = sched_result::unschedulable;
    } else if (cfg_.cheap_first) {
        verdict = linear(iface, terms);
    }
    if (!cfg_.cheap_first) {
        return verdict == sched_result::aborted ? walk(iface, terms)
                                                : verdict;
    }
    // Cheap-first ladder: both rungs are sound, so the portfolio's
    // verdict (when it has one) is final and the exact enumeration is
    // skipped entirely. Only `aborted` (undecided) falls through, to an
    // exact rung that counts as a test of its own but reuses the filters
    // the portfolio already passed.
    if (verdict != sched_result::aborted) {
        if (stats != nullptr) ++stats->ladder_cheap_decided;
        return verdict;
    }
    if (stats != nullptr) {
        ++stats->ladder_exact_fallbacks;
        ++stats->tests_run;
    }
    return walk(iface, terms);
}

sched_result sched_kernel::test(const resource_interface& iface) const {
    return probe(iface);
}

std::optional<std::uint64_t>
sched_kernel::min_budget(std::uint64_t period) const {
    if (period == 0) return std::nullopt;
    if (tasks_.empty()) return 0;
    // Theta/Pi > U is necessary (Theorem 1's precondition).
    auto lo = static_cast<std::uint64_t>(
                  std::floor(u_ * static_cast<double>(period))) +
              1;
    if (lo > period) return std::nullopt;

    if (probe({period, period}) != sched_result::schedulable) {
        return std::nullopt;
    }

    std::uint64_t hi = period; // known schedulable
    while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (probe({period, mid}) == sched_result::schedulable) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    return hi;
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
