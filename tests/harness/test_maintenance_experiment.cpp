// Maintenance scenario: the maintenance-aware admission story and the
// trial runner's bit-identical-for-any-thread-count contract.
//
// The headline assertion: under identical maintenance-storm campaigns,
// hard clients admitted with the maintenance-corrected supply bound miss
// zero deadlines while the watchdog sheds best-effort traffic; admission
// against the raw sbf under-provisions and hard clients miss.
#include <gtest/gtest.h>

#include "harness/scenario.hpp"
#include "../test_util.hpp"

namespace bluescale::harness {
namespace {

using testing::expect_same_sweep;

/// Heavy-but-admissible maintenance: hot device (2x DDR3 refresh rate)
/// plus background scrubbing. RowHammer mitigation is deliberately off:
/// its worst-case charge (every activation a hammer) is pessimistic
/// enough to push this near-capacity workload past the corrected
/// admission bound -- the bench sweep and the maintenance-engine unit
/// tests cover the hammer path.
memctrl_config heavy_maintenance_memctrl() {
    memctrl_config mc;
    mc.timing.t_refi = 975;
    mc.timing.t_rfc = 65;
    mc.maintenance.scrub_interval = 2048;
    mc.maintenance.scrub_duration = 32;
    return mc;
}

/// The acceptance scenario: light hard control traffic plus heavy
/// sheddable best-effort bulk, recurring maintenance storms (unmodeled
/// excess scrubbing) long enough to build real backlog but well under
/// the hard deadlines, and a watchdog fast enough to shed mid-storm.
/// Refused trials are not simulated (admission control said no).
scenario storm_scenario(bool aware, unsigned threads = 1) {
    scenario s;
    s.trials = 3;
    s.measure_cycles = 60'000;
    s.seed = 1;
    s.threads = threads;
    s.collect_metrics = true;
    s.memctrl = heavy_maintenance_memctrl();
    s.workload.util_lo = 0.18;
    s.workload.util_hi = 0.28;
    s.workload.taskset = {.n_tasks = 3,
                          .total_utilization = 0.05,
                          .min_period_units = 400,
                          .max_period_units = 1500,
                          .write_fraction = 0.3};
    s.workload.best_effort_clients = 6;
    s.workload.best_effort_util = 0.44;
    s.bandwidth_tolerance = 0.10;
    s.maintenance_aware = aware;
    s.skip_refused_trials = true;
    s.faults = sim::fault_campaign_config{.events_per_kcycle = 0.5,
                                          .se_stall_weight = 0.0,
                                          .link_drop_weight = 0.0,
                                          .dram_error_weight = 0.0,
                                          .backpressure_weight = 0.0,
                                          .maintenance_storm_weight = 1.0,
                                          .min_duration = 192,
                                          .max_duration = 384};
    s.watchdog = core::watchdog_config{};
    s.watchdog->check_period = 512;
    s.watchdog->shed_enter_windows = 1;
    return s;
}

TEST(maintenance_experiment, parallel_sweep_matches_serial) {
    const auto serial = run_sweep(ic_kind::bluescale, storm_scenario(true, 1));
    const auto parallel =
        run_sweep(ic_kind::bluescale, storm_scenario(true, 4));
    expect_same_sweep(serial, parallel);
}

TEST(maintenance_experiment, repeated_run_is_reproducible) {
    const auto a = run_sweep(ic_kind::bluescale, storm_scenario(false, 2));
    const auto b = run_sweep(ic_kind::bluescale, storm_scenario(false, 2));
    expect_same_sweep(a, b);
}

TEST(maintenance_experiment, modeled_maintenance_never_alarms_when_aware) {
    // No storms: every stall the device suffers is in the maintenance
    // model, so the corrected watchdog must stay silent and nothing is
    // shed -- refresh and scrub alone are budgeted, not anomalous.
    auto s = storm_scenario(true);
    s.faults->events_per_kcycle = 0.0;
    const auto r = run_sweep(ic_kind::bluescale, s);
    ASSERT_GE(r.count("feasible_trials"), 2u);
    EXPECT_GT(r.count("refreshes"), 0u);
    EXPECT_GT(r.count("scrubs"), 0u);
    EXPECT_GT(r.count("windows_checked"), 0u);
    EXPECT_EQ(r.count("supply_shortfall_alarms"), 0u);
    EXPECT_EQ(r.count("shed_events"), 0u);
    EXPECT_EQ(r.count("hard_misses"), 0u);
}

TEST(maintenance_experiment, corrected_sbf_survives_maintenance_storms) {
    // The acceptance scenario: identical workloads and storm schedules,
    // only the supply model differs.
    const auto aware = run_sweep(ic_kind::bluescale, storm_scenario(true));
    const auto unaware = run_sweep(ic_kind::bluescale, storm_scenario(false));

    // Raw-sbf admission accepts every draw; corrected admission refuses
    // the over-committed one (refusal IS the maintenance-aware
    // behavior: that workload cannot be guaranteed once refresh and
    // scrub are charged) and admits the rest. A refused trial still adds
    // its zero to each per-trial series.
    ASSERT_EQ(unaware.count("feasible_trials"), storm_scenario(false).trials);
    ASSERT_GE(aware.count("feasible_trials"), 2u);
    ASSERT_GT(aware.count("injected_events"), 0u);
    EXPECT_EQ(aware.series("hard_miss_ratio").count(),
              storm_scenario(true).trials);

    // Corrected admission: hard clients ride out the storms miss-free;
    // the watchdog sees the unmodeled theft (supply alarms) and sheds
    // best-effort traffic to protect them.
    EXPECT_EQ(aware.count("hard_misses"), 0u);
    EXPECT_GT(aware.count("supply_shortfall_alarms"), 0u);
    EXPECT_GT(aware.count("shed_events"), 0u);
    EXPECT_GT(aware.count("shed_client_cycles"), 0u);

    // Raw-sbf admission under-provisions: the same storm campaign
    // pushes hard clients over their deadlines.
    EXPECT_GT(unaware.count("hard_misses"), 0u);
    EXPECT_GT(unaware.count("best_effort_misses"), 0u);
}

} // namespace
} // namespace bluescale::harness
