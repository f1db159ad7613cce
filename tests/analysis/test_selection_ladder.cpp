#include <gtest/gtest.h>

#include "analysis/interface_selection.hpp"
#include "analysis/schedulability.hpp"
#include "analysis/tree_analysis.hpp"
#include "sim/rng.hpp"

namespace bluescale::analysis {
namespace {

task_set random_tasks(rng& r, int max_tasks = 5) {
    task_set tasks;
    const int n = 1 + static_cast<int>(r.pick(max_tasks));
    for (int i = 0; i < n; ++i) {
        const std::uint64_t period = 10 + r.uniform_u64(0, 490);
        const std::uint64_t wcet =
            1 + r.uniform_u64(0, std::max<std::uint64_t>(1, period / 6));
        tasks.push_back({period, wcet});
    }
    return tasks;
}

resource_interface random_interface(rng& r) {
    const std::uint64_t pi = 1 + r.uniform_u64(0, 99);
    const std::uint64_t theta = 1 + r.uniform_u64(0, pi - 1);
    return {pi, theta};
}

// The soundness contract behind the cheap-first ladder: whenever the
// sufficient portfolio decides, the exact test agrees. A disagreement
// here would let the ladder flip a selection verdict.
class ladder_agreement : public ::testing::TestWithParam<int> {};

TEST_P(ladder_agreement, sufficient_verdicts_match_exact) {
    rng r(100 + GetParam());
    for (int i = 0; i < 200; ++i) {
        const auto tasks = random_tasks(r);
        const auto iface = random_interface(r);
        const auto quick = is_schedulable_sufficient(tasks, iface);
        if (quick == sched_result::aborted) continue; // undecided is fine
        sched_test_config exact_cfg;
        exact_cfg.max_test_points = 1u << 26; // generous: avoid aborts
        const auto exact = is_schedulable(tasks, iface, exact_cfg);
        ASSERT_NE(exact, sched_result::aborted);
        EXPECT_EQ(quick, exact)
            << "portfolio flipped the verdict for Pi=" << iface.period
            << " Theta=" << iface.budget << " (" << tasks.size()
            << " tasks)";
    }
}

TEST_P(ladder_agreement, laddered_test_never_flips_a_decided_verdict) {
    rng r(900 + GetParam());
    for (int i = 0; i < 200; ++i) {
        const auto tasks = random_tasks(r);
        const auto iface = random_interface(r);
        const auto exact = is_schedulable(tasks, iface);
        sched_test_config ladder;
        ladder.cheap_first = true;
        const auto mixed = is_schedulable(tasks, iface, ladder);
        if (exact == sched_result::aborted) {
            // The only permitted divergence: the capped exact test gave
            // up, the ladder may still prove schedulability.
            EXPECT_NE(mixed, sched_result::unschedulable);
        } else {
            EXPECT_EQ(mixed, exact);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, ladder_agreement, ::testing::Range(1, 9));

TEST(ladder_agreement, selection_identical_with_and_without_ladder) {
    // Whole-tree sweep: the laddered selection must pick bit-identical
    // interfaces whenever the exact test never aborts (it does not at
    // these scales -- the abort counter proves it).
    for (std::uint64_t seed : {11u, 22u, 33u, 44u}) {
        rng r(seed);
        std::vector<task_set> clients(16);
        for (auto& s : clients) s = random_tasks(r, 3);

        sched_test_stats exact_work;
        analysis_context exact_ctx;
        exact_ctx.sched.stats = &exact_work;
        const auto exact = select_tree_interfaces(clients, exact_ctx);

        sched_test_stats ladder_work;
        analysis_context ladder_ctx;
        ladder_ctx.sched.cheap_first = true;
        ladder_ctx.sched.stats = &ladder_work;
        const auto laddered = select_tree_interfaces(clients, ladder_ctx);

        EXPECT_EQ(laddered.feasible, exact.feasible);
        EXPECT_EQ(laddered.failure, exact.failure);
        EXPECT_EQ(laddered.root_bandwidth, exact.root_bandwidth);
        ASSERT_EQ(laddered.levels.size(), exact.levels.size());
        for (std::uint32_t l = 0; l < exact.levels.size(); ++l) {
            for (std::uint32_t y = 0; y < exact.levels[l].size(); ++y) {
                for (std::uint32_t p = 0; p < 4; ++p) {
                    EXPECT_EQ(laddered.levels[l][y].ports[p],
                              exact.levels[l][y].ports[p])
                        << "SE(" << l << "," << y << ") port " << p;
                }
            }
        }
        // The ladder decided candidates cheaply...
        EXPECT_GT(ladder_work.ladder_cheap_decided, 0u);
        // ...and the exact-only run never used the ladder.
        EXPECT_EQ(exact_work.ladder_cheap_decided, 0u);
        EXPECT_EQ(exact_work.ladder_exact_fallbacks, 0u);
    }
}

TEST(ladder_stats, cheap_decisions_and_fallbacks_are_counted) {
    sched_test_stats stats;
    sched_test_config cfg;
    cfg.cheap_first = true;
    cfg.stats = &stats;
    // A trivially schedulable pair: the portfolio decides it outright.
    const task_set easy{{1000, 1}};
    EXPECT_EQ(is_schedulable(easy, {10, 9}, cfg),
              sched_result::schedulable);
    EXPECT_EQ(stats.ladder_cheap_decided, 1u);
    EXPECT_EQ(stats.ladder_exact_fallbacks, 0u);

    // A necessary-filter failure is also a cheap decision.
    EXPECT_EQ(is_schedulable(task_set{{10, 9}}, {10, 1}, cfg),
              sched_result::unschedulable);
    EXPECT_EQ(stats.ladder_cheap_decided, 2u);
}

TEST(ladder_stats, sufficient_probe_never_runs_the_exact_rung) {
    // The portfolio alone answers from its own breakpoints, even on a
    // cheap-first kernel: an undecided verdict stays undecided, and no
    // ladder counter moves. Linear demand 0.2 * 80 exceeds the linear
    // supply 0.25 * (80 - 30) at the second breakpoint.
    sched_test_stats stats;
    sched_test_config cfg;
    cfg.cheap_first = true;
    cfg.stats = &stats;
    const task_set tasks{{50, 5}, {80, 8}};
    const resource_interface iface{20, 5};
    const sched_kernel kernel(tasks, cfg);
    EXPECT_EQ(kernel.sufficient(iface), sched_result::aborted);
    EXPECT_EQ(is_schedulable_sufficient(tasks, iface),
              sched_result::aborted);
    EXPECT_EQ(stats.tests_run, 1u);
    EXPECT_EQ(stats.points_checked, 2u);
    EXPECT_EQ(stats.ladder_cheap_decided, 0u);
    EXPECT_EQ(stats.ladder_exact_fallbacks, 0u);

    // The ladder on the same kernel falls through to the exact test.
    EXPECT_NE(kernel.test(iface), sched_result::aborted);
    EXPECT_EQ(stats.ladder_exact_fallbacks, 1u);
}

} // namespace
} // namespace bluescale::analysis
