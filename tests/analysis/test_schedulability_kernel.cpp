// The prepared schedulability kernel against the reference enumeration:
// materialize every dbf step point up to the Theorem 1 horizon, sort them,
// and compare dbf with the maintenance-corrected sbf at each one. The
// kernel must reproduce the reference's verdicts AND its sched_test_stats
// counts exactly -- the counts price the hardware selector's modelled
// reconfiguration latency, so they are model outputs, not telemetry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "analysis/schedulability.hpp"
#include "analysis/tree_analysis.hpp"
#include "sim/rng.hpp"

namespace bluescale::analysis {
namespace {

std::uint64_t reference_horizon(double beta) {
    if (!(beta < 0x1p64)) return std::numeric_limits<std::uint64_t>::max();
    return static_cast<std::uint64_t>(std::ceil(beta)) + 1;
}

/// The shared necessary filters; true when one proves unschedulability.
bool reference_fails_necessary(const task_set& tasks,
                               const resource_interface& iface,
                               const sched_test_config& cfg) {
    if (iface.period == 0 || iface.budget == 0) return true;
    const maintenance_model& maint = cfg.maintenance;
    if (iface.bandwidth() * (1.0 - maint.utilization()) <=
        utilization(tasks)) {
        return true;
    }
    const std::uint64_t blackout = 2 * (iface.period - iface.budget);
    for (const auto& task : tasks) {
        if (task.wcet > 0 && task.period < blackout + task.wcet &&
            maintenance_sbf(task.period, iface, maint) < task.wcet) {
            return true;
        }
    }
    return false;
}

sched_result reference_sufficient(const task_set& tasks,
                                  const resource_interface& iface,
                                  const sched_test_config& cfg) {
    if (cfg.stats != nullptr) ++cfg.stats->tests_run;
    if (tasks.empty()) return sched_result::schedulable;
    if (reference_fails_necessary(tasks, iface, cfg)) {
        return sched_result::unschedulable;
    }
    const maintenance_model& maint = cfg.maintenance;
    const double u = utilization(tasks);
    const double beta = maintenance_beta(iface, u, maint);
    std::vector<std::pair<std::uint64_t, double>> steps;
    for (const auto& task : tasks) {
        if (task.wcet == 0 || task.period == 0) continue;
        steps.emplace_back(task.period, task.utilization());
    }
    std::sort(steps.begin(), steps.end());
    if (steps.empty() || static_cast<double>(steps.front().first) > beta) {
        return sched_result::schedulable;
    }
    const double bw = iface.bandwidth();
    const double mu = maint.utilization();
    const double offset =
        static_cast<double>(maint.burst()) +
        static_cast<double>(2 * (iface.period - iface.budget));
    double u_acc = 0.0;
    for (std::size_t i = 0; i < steps.size(); ++i) {
        u_acc += steps[i].second;
        if (i + 1 < steps.size() && steps[i + 1].first == steps[i].first) {
            continue;
        }
        if (cfg.stats != nullptr) ++cfg.stats->points_checked;
        const auto p = static_cast<double>(steps[i].first);
        if (u_acc * p > bw * ((1.0 - mu) * p - offset)) {
            return sched_result::aborted;
        }
    }
    return sched_result::schedulable;
}

sched_result reference_exact(const task_set& tasks,
                             const resource_interface& iface,
                             const sched_test_config& cfg) {
    if (cfg.stats != nullptr) ++cfg.stats->tests_run;
    if (tasks.empty()) return sched_result::schedulable;
    if (reference_fails_necessary(tasks, iface, cfg)) {
        return sched_result::unschedulable;
    }
    const std::uint64_t horizon = reference_horizon(
        maintenance_beta(iface, utilization(tasks), cfg.maintenance));
    std::uint64_t point_estimate = 0;
    for (const auto& task : tasks) {
        if (task.period == 0 || task.wcet == 0) continue;
        point_estimate += horizon / task.period;
        if (point_estimate > cfg.max_test_points) {
            return sched_result::aborted;
        }
    }
    for (const std::uint64_t t : dbf_step_points(tasks, horizon)) {
        if (cfg.stats != nullptr) ++cfg.stats->points_checked;
        if (dbf(t, tasks) > maintenance_sbf(t, iface, cfg.maintenance)) {
            return sched_result::unschedulable;
        }
    }
    return sched_result::schedulable;
}

sched_result reference_test(const task_set& tasks,
                            const resource_interface& iface,
                            const sched_test_config& cfg) {
    if (cfg.cheap_first) {
        const sched_result quick = reference_sufficient(tasks, iface, cfg);
        if (quick != sched_result::aborted) {
            if (cfg.stats != nullptr) ++cfg.stats->ladder_cheap_decided;
            return quick;
        }
        if (cfg.stats != nullptr) ++cfg.stats->ladder_exact_fallbacks;
    }
    return reference_exact(tasks, iface, cfg);
}

/// Small task sets with the edge cases the kernel must agree on: shared
/// periods (one breakpoint per distinct period), zero-wcet and
/// zero-period tasks.
task_set random_tasks(rng& r, std::uint64_t max_n = 6,
                      std::uint64_t wcet_divisor = 12) {
    task_set tasks;
    const auto n = 1 + r.pick(max_n);
    const std::uint64_t pool[] = {12, 30, 30, 60, 90, 120};
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t roll = r.pick(20);
        if (roll == 0) {
            tasks.push_back({0, r.pick(2)});
            continue;
        }
        const std::uint64_t period =
            roll < 6 ? pool[r.pick(6)] : 2 + r.uniform_u64(0, 400);
        const std::uint64_t wcet =
            roll == 1 ? 0 : 1 + r.uniform_u64(0, period / wcet_divisor);
        tasks.push_back({period, wcet});
    }
    return tasks;
}

/// Interfaces around the interesting region: budgets just above the
/// utilization (Theorem 1's bound beta explodes there) as well as
/// arbitrary and degenerate ones.
resource_interface random_interface(rng& r, double u) {
    const std::uint64_t pi = 1 + r.uniform_u64(0, 63);
    switch (r.pick(8)) {
    case 0: return {pi, 0};
    case 1: return {r.pick(4) == 0 ? 0 : pi, pi};
    case 2:
    case 3:
    case 4: {
        const auto floor_budget = static_cast<std::uint64_t>(
            std::floor(u * static_cast<double>(pi)));
        return {pi, std::min(pi, floor_budget + 1 + r.pick(2))};
    }
    default: return {pi, 1 + r.uniform_u64(0, pi - 1)};
    }
}

maintenance_model nonempty_maintenance(rng& r) {
    maintenance_model m;
    const auto ops = 1 + r.pick(2);
    for (std::uint64_t i = 0; i < ops; ++i) {
        const std::uint64_t period = 50 + r.uniform_u64(0, 950);
        m.ops.push_back({period, 1 + r.uniform_u64(0, 4)});
    }
    return m;
}

maintenance_model random_maintenance(rng& r) {
    if (r.pick(2) == 0) return {};
    return nonempty_maintenance(r);
}

/// The probe a mode runs: the exact test alone, the sufficient portfolio
/// alone (sched_kernel::sufficient, which is_schedulable_sufficient runs),
/// or the cheap-first ladder over both.
enum class probe_mode { exact, portfolio, cheap_first };

const char* mode_name(probe_mode mode) {
    switch (mode) {
    case probe_mode::exact: return "exact";
    case probe_mode::portfolio: return "portfolio";
    case probe_mode::cheap_first: return "cheap_first";
    }
    return "?";
}

/// One prepared kernel and the reference sequence (the sufficient rung,
/// then the exact rung on an undecided verdict) probing the same
/// interfaces in one mode, each with its own work counters.
class differential {
public:
    differential(const task_set& tasks, sched_test_config cfg,
                 probe_mode mode)
        : tasks_(tasks), mode_(mode),
          kernel_cfg_(with_mode(cfg, mode, &got_)),
          reference_cfg_(with_mode(cfg, mode, &want_)),
          kernel_(tasks_, kernel_cfg_) {}
    // The kernel refers to this object's own config.
    differential(const differential&) = delete;
    differential& operator=(const differential&) = delete;

    /// Probes both; the verdicts and, after this probe, all four work
    /// counters must agree.
    sched_result probe(const resource_interface& iface) {
        const bool portfolio = mode_ == probe_mode::portfolio;
        const auto verdict =
            portfolio ? kernel_.sufficient(iface) : kernel_.test(iface);
        const auto expected =
            portfolio ? reference_sufficient(tasks_, iface, reference_cfg_)
                      : reference_test(tasks_, iface, reference_cfg_);
        const auto where = ::testing::Message()
                           << mode_name(mode_) << " probe on ("
                           << iface.period << ", " << iface.budget << ")";
        EXPECT_EQ(verdict, expected) << where;
        EXPECT_EQ(got_.tests_run, want_.tests_run) << where;
        EXPECT_EQ(got_.points_checked, want_.points_checked) << where;
        EXPECT_EQ(got_.ladder_cheap_decided, want_.ladder_cheap_decided)
            << where;
        EXPECT_EQ(got_.ladder_exact_fallbacks, want_.ladder_exact_fallbacks)
            << where;
        return verdict;
    }

    [[nodiscard]] const sched_test_stats& work() const { return got_; }

private:
    static sched_test_config with_mode(sched_test_config cfg,
                                       probe_mode mode,
                                       sched_test_stats* stats) {
        // The portfolio's breakpoints are prepared for cheap_first only.
        cfg.cheap_first = mode != probe_mode::exact;
        cfg.stats = stats;
        return cfg;
    }

    const task_set& tasks_;
    probe_mode mode_;
    sched_test_stats got_;
    sched_test_stats want_;
    sched_test_config kernel_cfg_;
    sched_test_config reference_cfg_;
    sched_kernel kernel_;
};

TEST(schedulability_kernel, matches_reference_enumeration) {
    rng r(2024);
    const std::uint64_t caps[] = {8, 64, 512, 1u << 14};
    std::uint64_t verdicts[3] = {};
    std::uint64_t points = 0;
    for (int set = 0; set < 2500; ++set) {
        const task_set tasks = random_tasks(r);
        sched_test_config cfg;
        cfg.maintenance = random_maintenance(r);
        cfg.max_test_points = caps[r.pick(4)];
        const auto mode = static_cast<probe_mode>(r.pick(3));
        // The portfolio's breakpoints are prepared for cheap_first only.
        cfg.cheap_first = mode != probe_mode::exact;

        // One kernel probes several interfaces, as interface selection
        // does; the counters accumulate across its probes.
        sched_test_stats got;
        sched_test_stats want;
        sched_test_config kernel_cfg = cfg;
        kernel_cfg.stats = &got;
        sched_test_config reference_cfg = cfg;
        reference_cfg.stats = &want;
        const sched_kernel kernel(tasks, kernel_cfg);
        for (int probe = 0; probe < 4; ++probe) {
            const auto iface = random_interface(r, utilization(tasks));
            const bool portfolio = mode == probe_mode::portfolio;
            const auto verdict =
                portfolio ? kernel.sufficient(iface) : kernel.test(iface);
            const auto expected =
                portfolio ? reference_sufficient(tasks, iface, reference_cfg)
                          : reference_test(tasks, iface, reference_cfg);
            ASSERT_EQ(verdict, expected)
                << "set " << set << " probe " << probe << " ("
                << mode_name(mode) << ") on (" << iface.period << ", "
                << iface.budget << ")";
            ASSERT_EQ(got, want) << "set " << set << " probe " << probe
                                 << " (" << mode_name(mode) << ")";
            ++verdicts[static_cast<int>(verdict)];
        }
        points += got.points_checked;

        // The one-shot wrappers run the same kernel.
        const auto iface = random_interface(r, utilization(tasks));
        sched_test_stats once;
        sched_test_stats once_want;
        kernel_cfg.stats = &once;
        reference_cfg.stats = &once_want;
        ASSERT_EQ(is_schedulable(tasks, iface, kernel_cfg),
                  reference_test(tasks, iface, reference_cfg));
        ASSERT_EQ(is_schedulable_sufficient(tasks, iface, kernel_cfg),
                  reference_sufficient(tasks, iface, reference_cfg));
        ASSERT_EQ(once, once_want) << "set " << set;
    }
    // Every verdict and the point walk itself must be exercised.
    EXPECT_GT(verdicts[static_cast<int>(sched_result::schedulable)], 500u);
    EXPECT_GT(verdicts[static_cast<int>(sched_result::unschedulable)], 500u);
    EXPECT_GT(verdicts[static_cast<int>(sched_result::aborted)], 100u);
    EXPECT_GT(points, 4'000u);
}

TEST(schedulability_kernel, exploding_bound_saturates_and_aborts) {
    // Utilization 1/3 on a bandwidth one or two ulps above it: beta ~ 1e31
    // is far past 2^64, so ceil(beta) has no integer value. The horizon
    // saturates and the point-estimate cap aborts the test.
    const task_set tasks{{9'000'000'000'000'000, 3'000'000'000'000'000}};
    const resource_interface iface{2'999'999'999'999'999,
                                   1'000'000'000'000'000};
    ASSERT_GT(maintenance_beta(iface, utilization(tasks), {}), 0x1p64);
    sched_test_stats st;
    sched_test_config cfg;
    cfg.max_test_points = 1000;
    cfg.stats = &st;
    EXPECT_EQ(is_schedulable(tasks, iface, cfg), sched_result::aborted);
    EXPECT_EQ(st.tests_run, 1u);
    EXPECT_EQ(st.points_checked, 0u);
}

TEST(schedulability_kernel, wide_sets_under_maintenance_match_reference) {
    // Up to 8 tasks (duplicate periods, zero wcet or zero period) and, one
    // set in six, up to 24 light tasks -- more than the walk keeps on the
    // stack -- always against a non-empty maintenance model.
    rng r(77);
    const std::uint64_t caps[] = {8, 64, 512, 1u << 14};
    std::uint64_t verdicts[3] = {};
    std::uint64_t points = 0;
    std::uint64_t wide_points = 0;
    for (int set = 0; set < 1500; ++set) {
        const bool wide = r.pick(6) == 0;
        const task_set tasks = wide ? random_tasks(r, 24, 96)
                                    : random_tasks(r, 8);
        sched_test_config cfg;
        cfg.maintenance = nonempty_maintenance(r);
        cfg.max_test_points = caps[r.pick(4)];
        differential diff(tasks, cfg, static_cast<probe_mode>(r.pick(3)));
        for (int probe = 0; probe < 6; ++probe) {
            const auto verdict =
                diff.probe(random_interface(r, utilization(tasks)));
            ASSERT_FALSE(::testing::Test::HasFailure())
                << "set " << set << " probe " << probe;
            ++verdicts[static_cast<int>(verdict)];
        }
        points += diff.work().points_checked;
        if (tasks.size() > 8) wide_points += diff.work().points_checked;
    }
    EXPECT_GT(verdicts[static_cast<int>(sched_result::schedulable)], 500u);
    EXPECT_GT(verdicts[static_cast<int>(sched_result::unschedulable)], 500u);
    EXPECT_GT(verdicts[static_cast<int>(sched_result::aborted)], 100u);
    EXPECT_GT(points, 4'000u);
    EXPECT_GT(wide_points, 100u);
}

/// Task sets whose periods are drawn from [lo, hi], with wcets of 1/16 to
/// 1/4 of the period, probed at budgets one or two units above U * Pi
/// with Pi between 2^-24 and 2^-12 of the shortest period. The bandwidth
/// is then within 2/Pi of the utilization (and Pi is small enough for
/// doubles to resolve that), so beta, if defined, passes 2^64.
struct huge_horizon_case {
    task_set tasks;
    resource_interface iface;
};

huge_horizon_case random_huge_horizon_case(rng& r, std::uint64_t lo,
                                           std::uint64_t hi) {
    huge_horizon_case c;
    const auto n = 1 + r.pick(4);
    std::uint64_t t_min = hi;
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t period =
            i > 0 && r.pick(4) == 0 ? c.tasks.back().period
                                    : r.uniform_u64(lo, hi);
        c.tasks.push_back({period, period / (4 + r.pick(13))});
        t_min = std::min(t_min, period);
    }
    const std::uint64_t pi = r.uniform_u64(t_min >> 24, t_min >> 12);
    const auto floor_budget = static_cast<std::uint64_t>(
        std::floor(utilization(c.tasks) * static_cast<double>(pi)));
    c.iface = {pi, std::min(pi, floor_budget + 1 + r.pick(2))};
    return c;
}

TEST(schedulability_kernel, saturated_horizon_matches_reference) {
    // Periods of 10^16 to 9 * 10^16 under a horizon saturated at 2^64 - 1:
    // each task has 200 to 1,800 multiples below it. The caps make the
    // point cap abort some probes (on its one-division path or on its
    // per-task sum) and let others walk.
    rng r(5);
    const std::uint64_t caps[] = {100, 1000, 10'000};
    std::uint64_t saturated = 0;
    std::uint64_t aborted = 0;
    std::uint64_t walks = 0;
    for (int set = 0; set < 300; ++set) {
        const auto c = random_huge_horizon_case(r, 10'000'000'000'000'000,
                                                90'000'000'000'000'000);
        if (maintenance_beta(c.iface, utilization(c.tasks), {}) >= 0x1p64) {
            ++saturated;
        }
        sched_test_config cfg;
        cfg.max_test_points = caps[r.pick(3)];
        differential diff(c.tasks, cfg, static_cast<probe_mode>(r.pick(3)));
        if (diff.probe(c.iface) == sched_result::aborted) ++aborted;
        ASSERT_FALSE(::testing::Test::HasFailure()) << "set " << set;
        if (diff.work().points_checked > c.tasks.size()) ++walks;
    }
    EXPECT_GT(saturated, 250u);
    EXPECT_GT(aborted, 50u);
    EXPECT_GT(walks, 50u);
}

TEST(schedulability_kernel, huge_periods_walk_to_the_horizon_without_wrap) {
    // Periods of at least 2^62 under a saturated horizon: at most three
    // multiples of each fit below 2^64, so the walk runs to the end and
    // the next multiple after the last one would wrap.
    rng r(6);
    constexpr std::uint64_t lo = std::uint64_t{1} << 62;
    std::uint64_t walks = 0;
    std::uint64_t deepest = 0;
    for (int set = 0; set < 400; ++set) {
        const auto c = random_huge_horizon_case(r, lo, ~std::uint64_t{0});
        sched_test_config cfg;
        if (r.pick(2) == 0) cfg.maintenance = nonempty_maintenance(r);
        differential diff(c.tasks, cfg, static_cast<probe_mode>(r.pick(3)));
        (void)diff.probe(c.iface);
        ASSERT_FALSE(::testing::Test::HasFailure()) << "set " << set;
        const std::uint64_t points = diff.work().points_checked;
        if (points > 0) ++walks;
        deepest = std::max(deepest, points);
    }
    EXPECT_GT(walks, 100u);
    EXPECT_GE(deepest, 3u);
}

TEST(schedulability_kernel, min_budget_is_the_first_schedulable_budget) {
    // The kernel's binary search against an ascending scan of Theta.
    rng r(99);
    const std::uint64_t caps[] = {8, 64, 512, 1u << 14};
    std::uint64_t found = 0;
    std::uint64_t none = 0;
    for (int set = 0; set < 200; ++set) {
        const task_set tasks = random_tasks(r);
        sched_test_config cfg;
        cfg.maintenance = random_maintenance(r);
        cfg.max_test_points = caps[r.pick(4)];
        cfg.cheap_first = r.pick(2) == 0;
        const sched_kernel kernel(tasks, cfg);
        for (std::uint64_t pi = 1; pi <= 40; ++pi) {
            std::optional<std::uint64_t> first;
            for (std::uint64_t theta = 1; theta <= pi && !first; ++theta) {
                if (is_schedulable(tasks, {pi, theta}, cfg) ==
                    sched_result::schedulable) {
                    first = theta;
                }
            }
            ASSERT_EQ(kernel.min_budget(pi), first)
                << "set " << set << " period " << pi;
            ++(first ? found : none);
        }
    }
    EXPECT_GT(found, 3000u);
    EXPECT_GT(none, 300u);

    const sched_test_config defaults;
    const task_set tasks{{10, 2}};
    EXPECT_EQ(sched_kernel(tasks, defaults).min_budget(0), std::nullopt);
    const task_set empty;
    EXPECT_EQ(sched_kernel(empty, defaults).min_budget(7), 0u);
}

std::uint64_t selection_digest(const tree_selection& sel) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    };
    mix(sel.feasible ? 1 : 0);
    for (const auto& level : sel.levels) {
        for (const auto& se : level) {
            for (const auto& port : se.ports) {
                mix(port ? 1 : 0);
                if (port) {
                    mix(port->period);
                    mix(port->budget);
                }
            }
        }
    }
    return h;
}

TEST(schedulability_kernel, depth3_selection_work_is_pinned) {
    // 64 clients (a depth-3 tree), serial uncached selection, exact-only
    // and cheap-first. The counters and the selection were recorded
    // before the kernel was prepared once per selection; analysis speedups
    // must not move them.
    rng r(31);
    std::vector<task_set> clients(64);
    for (auto& tasks : clients) {
        const auto n = 1 + r.pick(3);
        for (std::uint64_t i = 0; i < n; ++i) {
            const std::uint64_t period = 400 + r.uniform_u64(0, 1600);
            tasks.push_back({period, 1 + r.uniform_u64(0, period / 300)});
        }
    }
    constexpr std::uint64_t k_digest = 0x6fe47445907fe1a6ull;

    sched_test_stats exact;
    analysis_context ctx;
    ctx.sched.stats = &exact;
    const auto sel = select_tree_interfaces(clients, ctx);
    EXPECT_TRUE(sel.feasible);
    EXPECT_EQ(selection_digest(sel), k_digest);
    EXPECT_EQ(exact.tests_run, 375'604u);
    EXPECT_EQ(exact.points_checked, 71'656u);

    sched_test_stats ladder;
    ctx.sched.stats = &ladder;
    ctx.sched.cheap_first = true;
    EXPECT_EQ(selection_digest(select_tree_interfaces(clients, ctx)),
              k_digest);
    EXPECT_EQ(ladder.tests_run, 421'300u);
    EXPECT_EQ(ladder.points_checked, 122'819u);
    EXPECT_EQ(ladder.ladder_cheap_decided, 329'908u);
    EXPECT_EQ(ladder.ladder_exact_fallbacks, 45'696u);
}

} // namespace
} // namespace bluescale::analysis
