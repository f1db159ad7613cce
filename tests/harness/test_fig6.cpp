#include <gtest/gtest.h>

#include <iterator>

#include "harness/factory.hpp"
#include "harness/scenario.hpp"
#include "../test_util.hpp"

namespace bluescale::harness {
namespace {

using testing::expect_same_sweep;

/// The Fig. 6 method: paper workload, the family's client seeding.
scenario small_scenario() {
    scenario s;
    s.workload.n_clients = 16;
    s.trials = 2;
    s.measure_cycles = 8'000;
    s.seed = 99;
    s.seeding = client_seeding::fig6_xor;
    s.metrics_before_finalize = true;
    return s;
}

TEST(fig6, produces_per_trial_samples) {
    const auto r = run_sweep(ic_kind::bluescale, small_scenario());
    EXPECT_EQ(r.series("blocking_us").count(), 2u);
    EXPECT_EQ(r.series("worst_blocking_us").count(), 2u);
    EXPECT_EQ(r.series("miss_ratio").count(), 2u);
    EXPECT_GT(r.series("blocking_us").mean(), 0.0);
}

TEST(fig6, bluescale_selection_feasible_at_paper_utilizations) {
    const auto r = run_sweep(ic_kind::bluescale, small_scenario());
    EXPECT_EQ(r.count("feasible_trials"), 2u);
}

TEST(fig6, metrics_within_sane_ranges) {
    for (ic_kind kind :
         {ic_kind::bluescale, ic_kind::bluetree, ic_kind::gsmtree_tdm}) {
        const auto r = run_sweep(kind, small_scenario());
        const auto& miss = r.series("miss_ratio");
        EXPECT_GE(miss.min(), 0.0) << kind_name(kind);
        EXPECT_LE(miss.max(), 1.0) << kind_name(kind);
        EXPECT_GE(r.series("blocking_us").min(), 0.0) << kind_name(kind);
        EXPECT_LE(r.series("blocking_us").mean(),
                  r.series("worst_blocking_us").max())
            << kind_name(kind);
    }
}

TEST(fig6, deterministic_given_seed) {
    const auto a = run_sweep(ic_kind::bluetree, small_scenario());
    const auto b = run_sweep(ic_kind::bluetree, small_scenario());
    expect_same_sweep(a, b);
}

TEST(fig6, different_seeds_differ) {
    auto s = small_scenario();
    const auto a = run_sweep(ic_kind::bluetree, s);
    s.seed = 12345;
    const auto b = run_sweep(ic_kind::bluetree, s);
    EXPECT_NE(a.series("blocking_us").mean(),
              b.series("blocking_us").mean());
}

TEST(fig6, run_all_covers_six_designs) {
    auto s = small_scenario();
    s.trials = 1;
    ASSERT_EQ(std::size(k_all_kinds), 6u);
    for (ic_kind kind : k_all_kinds) {
        const auto r = run_sweep(kind, s);
        EXPECT_EQ(r.series("blocking_us").count(), 1u) << kind_name(kind);
    }
}

TEST(fig6, extended_kind_runs_through_harness) {
    const auto r = run_sweep(ic_kind::axi_hyperconnect, small_scenario());
    EXPECT_EQ(r.series("blocking_us").count(), 2u);
    EXPECT_GE(r.series("miss_ratio").min(), 0.0);
    EXPECT_LE(r.series("miss_ratio").max(), 1.0);
}

TEST(fig6, parallel_trials_bit_identical_to_serial) {
    // The execution-layer contract: aggregates are exactly equal (not
    // just close) for any thread count, because per-trial results are
    // merged in trial order.
    auto s = small_scenario();
    s.trials = 6;
    s.collect_metrics = true;
    for (ic_kind kind : {ic_kind::bluescale, ic_kind::bluetree}) {
        s.threads = 1;
        const auto serial = run_sweep(kind, s);
        s.threads = 4;
        const auto parallel = run_sweep(kind, s);
        SCOPED_TRACE(kind_name(kind));
        // Sample order first: the CSV comparison's percentiles sort.
        for (const char* name :
             {"blocking_us", "worst_blocking_us", "miss_ratio"}) {
            EXPECT_EQ(serial.series(name).samples(),
                      parallel.series(name).samples())
                << name;
        }
        expect_same_sweep(serial, parallel);
    }
}

TEST(fig6, se_override_applies) {
    auto s = small_scenario();
    s.trials = 1;
    core::se_params se;
    se.buffer_depth = 4;
    se.policy = core::server_policy::fixed_priority;
    s.bluescale_se = se;
    const auto r = run_sweep(ic_kind::bluescale, s);
    EXPECT_EQ(r.series("blocking_us").count(), 1u); // just runs through
}

} // namespace
} // namespace bluescale::harness
