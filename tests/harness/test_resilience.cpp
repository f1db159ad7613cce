// Resilience scenario determinism and plumbing: the fault campaign,
// recovery, and degraded-mode paths must preserve the trial runner's
// bit-identical-for-any-thread-count contract, and non-zero intensity
// must actually inject (non-zero fault and recovery counters).
#include <gtest/gtest.h>

#include "harness/scenario.hpp"
#include "../test_util.hpp"

namespace bluescale::harness {
namespace {

using testing::expect_same_sweep;

scenario small_scenario(unsigned threads, double intensity) {
    scenario s;
    s.trials = 3;
    s.measure_cycles = 30'000;
    s.seed = 11;
    s.threads = threads;
    s.collect_metrics = true;
    s.client_retry = true;
    s.health = core::health_config{};
    s.faults = sim::fault_campaign_config{.events_per_kcycle = intensity};
    return s;
}

TEST(resilience, parallel_sweep_matches_serial_under_faults) {
    const auto serial =
        run_sweep(ic_kind::bluescale, small_scenario(1, 0.5));
    const auto parallel =
        run_sweep(ic_kind::bluescale, small_scenario(4, 0.5));
    expect_same_sweep(serial, parallel);
}

TEST(resilience, baseline_parallel_sweep_matches_serial) {
    const auto serial = run_sweep(ic_kind::bluetree, small_scenario(1, 0.5));
    const auto parallel =
        run_sweep(ic_kind::bluetree, small_scenario(4, 0.5));
    expect_same_sweep(serial, parallel);
}

TEST(resilience, repeated_run_is_reproducible) {
    const auto a = run_sweep(ic_kind::bluescale, small_scenario(2, 1.0));
    const auto b = run_sweep(ic_kind::bluescale, small_scenario(2, 1.0));
    expect_same_sweep(a, b);
}

TEST(resilience, nonzero_intensity_injects_and_recovers) {
    const auto r = run_sweep(ic_kind::bluescale, small_scenario(2, 1.0));
    EXPECT_GT(r.count("injected_events"), 0u);
    EXPECT_GT(r.count("se_stall_cycles"), 0u);
    EXPECT_GT(r.count("ecc_retries") + r.count("uncorrected_errors") +
                  r.count("link_drops") + r.count("storm_cycles"),
              0u);
    EXPECT_GT(r.count("retries"), 0u);
    EXPECT_GT(r.count("timeouts"), 0u);
}

TEST(resilience, zero_intensity_is_fault_free) {
    const auto r = run_sweep(ic_kind::bluescale, small_scenario(2, 0.0));
    EXPECT_EQ(r.count("injected_events"), 0u);
    EXPECT_EQ(r.count("se_stall_cycles"), 0u);
    EXPECT_EQ(r.count("link_drops"), 0u);
    EXPECT_EQ(r.count("ecc_retries"), 0u);
    EXPECT_EQ(r.count("retries"), 0u);
    EXPECT_EQ(r.count("degrade_events"), 0u);
}

TEST(resilience, baselines_see_no_se_faults_but_share_the_rest) {
    const auto r = run_sweep(ic_kind::bluetree, small_scenario(2, 1.0));
    // No SE fabric: stall and degraded-mode counters stay zero, while
    // the memory-side faults (and the recovery they trigger) still bite.
    EXPECT_EQ(r.count("se_stall_cycles"), 0u);
    EXPECT_EQ(r.count("degrade_events"), 0u);
    EXPECT_EQ(r.count("degraded_se_cycles"), 0u);
    EXPECT_GT(r.count("ecc_retries") + r.count("uncorrected_errors"), 0u);
    EXPECT_GT(r.count("injected_events"), 0u);
}

} // namespace
} // namespace bluescale::harness
