// Maintenance determinism gate: every maintenance export -- refresh /
// scrub / mitigation counters, stolen-cycle totals, the merged metrics
// snapshot and the event trace -- must be byte-identical between the
// event-driven engine and the BLUESCALE_LOCKSTEP cycle-stepped fallback,
// at any --threads setting. Maintenance work is exactly the kind of
// background activity an idle-skipping scheduler could sleep through: a
// refresh boundary that fires a cycle late in one engine shows up here
// as a diff, not as a silently shifted result.
#include <gtest/gtest.h>

#include "harness/scenario.hpp"
#include "sim/simulator.hpp"
#include "../test_util.hpp"

namespace bluescale::harness {
namespace {

using testing::expect_same_sweep;
using testing::scoped_engine;

/// All three maintenance mechanisms on, plus storms: the config's whole
/// point is to exercise every maintenance wake path (refresh boundary,
/// scrub slot, hammer mitigation, injected storm) in one short run.
/// Unaware admission (the raw sbf) so no trial is refused and every seed
/// simulates.
scenario det_scenario(unsigned threads) {
    scenario s;
    s.trials = 3;
    s.measure_cycles = 12'000;
    s.seed = 3;
    s.threads = threads;
    s.workload.util_lo = 0.40;
    s.workload.util_hi = 0.60;
    s.workload.taskset = {.n_tasks = 3,
                          .total_utilization = 0.05,
                          .min_period_units = 300,
                          .max_period_units = 1500,
                          .write_fraction = 0.3};
    s.workload.best_effort_clients = 4;
    s.memctrl.timing.t_refi = 975;
    s.memctrl.timing.t_rfc = 65;
    s.memctrl.maintenance.scrub_interval = 1024;
    s.memctrl.maintenance.scrub_duration = 16;
    s.memctrl.maintenance.hammer_threshold = 128;
    s.memctrl.maintenance.hammer_mitigation_cycles = 16;
    s.bandwidth_tolerance = 0.10;
    s.skip_refused_trials = true;
    s.faults = sim::fault_campaign_config{.events_per_kcycle = 0.4,
                                          .se_stall_weight = 0.0,
                                          .link_drop_weight = 0.0,
                                          .dram_error_weight = 0.0,
                                          .backpressure_weight = 0.0,
                                          .maintenance_storm_weight = 1.0,
                                          .min_duration = 64,
                                          .max_duration = 256};
    s.watchdog = core::watchdog_config{};
    s.watchdog->check_period = 512;
    s.collect_metrics = true;
    s.collect_trace = true;
    return s;
}

TEST(maintenance_determinism, event_matches_lockstep_at_threads_1_and_4) {
    for (const unsigned threads : {1u, 4u}) {
        sweep_result event_r, lockstep_r;
        {
            scoped_engine guard(simulator::engine::event);
            event_r = run_sweep(ic_kind::bluescale, det_scenario(threads));
        }
        {
            scoped_engine guard(simulator::engine::lockstep);
            lockstep_r = run_sweep(ic_kind::bluescale, det_scenario(threads));
        }
        SCOPED_TRACE(threads);
        // The run must have real maintenance traffic to compare.
        ASSERT_FALSE(event_r.metrics.empty());
        EXPECT_GT(event_r.count("refreshes"), 0u);
        EXPECT_GT(event_r.count("scrubs"), 0u);
        EXPECT_GT(event_r.count("maintenance_storm_cycles"), 0u);
        expect_same_sweep(event_r, lockstep_r);
    }
}

TEST(maintenance_determinism, thread_count_invariant_per_engine) {
    for (const auto engine :
         {simulator::engine::event, simulator::engine::lockstep}) {
        scoped_engine guard(engine);
        const auto serial = run_sweep(ic_kind::bluescale, det_scenario(1));
        const auto parallel = run_sweep(ic_kind::bluescale, det_scenario(4));
        SCOPED_TRACE(engine == simulator::engine::event ? "event"
                                                        : "lockstep");
        ASSERT_FALSE(serial.metrics.empty());
        expect_same_sweep(serial, parallel);
    }
}

} // namespace
} // namespace bluescale::harness
