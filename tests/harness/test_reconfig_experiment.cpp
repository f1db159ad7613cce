// Reconfiguration scenario determinism and plumbing: scheduled admission
// requests must preserve the trial runner's bit-identical-for-any-
// thread-count contract, BlueScale must actually admit and commit (and
// reject infeasible churn with zero perturbation), and the baseline must
// apply everything unconditionally.
#include <gtest/gtest.h>

#include "harness/scenario.hpp"
#include "../test_util.hpp"

namespace bluescale::harness {
namespace {

using testing::expect_same_sweep;

scenario small_scenario(unsigned threads, double rate) {
    scenario s;
    s.trials = 3;
    s.measure_cycles = 30'000;
    s.seed = 11;
    s.threads = threads;
    s.collect_metrics = true;
    s.workload.best_effort_clients = 4;
    s.client_retry = true;
    s.health = core::health_config{};
    s.watchdog = core::watchdog_config{};
    s.reconfig = core::reconfig_config{};
    s.requests = sim::reconfig_schedule_config{.warmup = 2'000,
                                               .events_per_kcycle = rate};
    return s;
}

TEST(reconfig_experiment, parallel_sweep_matches_serial) {
    auto serial_s = small_scenario(1, 0.5);
    auto parallel_s = small_scenario(4, 0.5);
    // Include concurrent faults so hazard rollbacks are exercised too.
    serial_s.faults = parallel_s.faults =
        sim::fault_campaign_config{.events_per_kcycle = 0.3};
    const auto serial = run_sweep(ic_kind::bluescale, serial_s);
    const auto parallel = run_sweep(ic_kind::bluescale, parallel_s);
    expect_same_sweep(serial, parallel);
}

TEST(reconfig_experiment, baseline_parallel_sweep_matches_serial) {
    const auto serial = run_sweep(ic_kind::bluetree, small_scenario(1, 0.5));
    const auto parallel =
        run_sweep(ic_kind::bluetree, small_scenario(4, 0.5));
    expect_same_sweep(serial, parallel);
}

TEST(reconfig_experiment, repeated_run_is_reproducible) {
    const auto a = run_sweep(ic_kind::bluescale, small_scenario(2, 0.5));
    const auto b = run_sweep(ic_kind::bluescale, small_scenario(2, 0.5));
    expect_same_sweep(a, b);
}

TEST(reconfig_experiment, bluescale_admits_and_commits) {
    const auto r = run_sweep(ic_kind::bluescale, small_scenario(2, 0.5));
    EXPECT_GT(r.count("submitted"), 0u);
    EXPECT_GT(r.count("admitted"), 0u);
    EXPECT_GT(r.count("committed"), 0u);
    EXPECT_EQ(r.count("applied_unchecked"), 0u);
    // Every commit -- and nothing else -- swaps a live task set.
    EXPECT_EQ(r.count("live_reconfigurations"), r.count("committed"));
    EXPECT_GT(r.series("reconfig_latency_cycles").count(), 0u);
    EXPECT_GT(r.series("reconfig_latency_cycles").mean(), 0.0);
    EXPECT_GT(r.count("windows_checked"), 0u);
    // The ratio is derived from the merged counters.
    EXPECT_DOUBLE_EQ(r.ratio("admission_ratio"),
                     static_cast<double>(r.count("admitted")) /
                         static_cast<double>(r.count("submitted")));
}

TEST(reconfig_experiment, baseline_applies_unconditionally) {
    const auto r = run_sweep(ic_kind::bluetree, small_scenario(2, 0.5));
    EXPECT_EQ(r.count("submitted"), 0u);
    EXPECT_EQ(r.count("admitted"), 0u);
    EXPECT_GT(r.count("applied_unchecked"), 0u);
    EXPECT_EQ(r.count("live_reconfigurations"), r.count("applied_unchecked"));
    // No admission control, no watchdog: the counters stay silent.
    EXPECT_EQ(r.count("windows_checked"), 0u);
    EXPECT_EQ(r.count("shed_events"), 0u);
}

TEST(reconfig_experiment, zero_rate_means_no_requests) {
    const auto r = run_sweep(ic_kind::bluescale, small_scenario(2, 0.0));
    EXPECT_EQ(r.count("submitted"), 0u);
    EXPECT_EQ(r.count("committed"), 0u);
    EXPECT_EQ(r.count("live_reconfigurations"), 0u);
}

TEST(reconfig_experiment, rejected_churn_is_bit_identical_to_no_requests) {
    // Every scheduled request is a join demanding 150-200% of the whole
    // fabric's bandwidth for one client: infeasible no matter what the
    // other clients hold, so every admission test must reject -- and a
    // fully rejected run must leave every client metric bit-identical to
    // a run where no request ever arrived.
    auto churn_s = small_scenario(2, 0.5);
    churn_s.requests->scale_up_weight = 0.0;
    churn_s.requests->scale_down_weight = 0.0;
    churn_s.requests->join_weight = 1.0;
    churn_s.requests->leave_weight = 0.0;
    churn_s.requests->magnitude_lo = 1.5;
    churn_s.requests->magnitude_hi = 2.0;
    const auto churn = run_sweep(ic_kind::bluescale, churn_s);
    const auto quiet = run_sweep(ic_kind::bluescale, small_scenario(2, 0.0));

    EXPECT_GT(churn.count("submitted"), 0u);
    EXPECT_EQ(churn.count("admitted"), 0u);
    EXPECT_EQ(churn.count("committed"), 0u);
    EXPECT_GT(churn.count("rejected_infeasible") +
                  churn.count("rejected_overutilized"),
              0u);
    EXPECT_EQ(churn.count("live_reconfigurations"), 0u);

    // Zero perturbation, observed end to end through the whole stack.
    EXPECT_EQ(churn.series("miss_ratio").samples(),
              quiet.series("miss_ratio").samples());
    for (const char* name : {"hard_misses", "best_effort_misses",
                             "violating_windows", "shed_events"}) {
        EXPECT_EQ(churn.count(name), quiet.count(name)) << name;
    }
}

} // namespace
} // namespace bluescale::harness
