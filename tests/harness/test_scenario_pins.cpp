// Cross-revision regression pins: one small scenario per experiment the
// sweep harness runs, with integer totals recorded from the five
// per-experiment harnesses that run_sweep replaced. The other harness
// tests compare threads and engines within one build; these catch a
// change that shifts every build the same way (a reordered seed draw, a
// stage built in a different order, an aggregate recorded twice or
// under the wrong name). If a model change moves them on purpose,
// re-derive the numbers and say why in CHANGES.md.
#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "harness/scenario.hpp"

namespace bluescale::harness {
namespace {

scenario fig6_scenario() {
    scenario s;
    s.trials = 2;
    s.measure_cycles = 8'000;
    s.seed = 99;
    s.seeding = client_seeding::fig6_xor;
    s.collect_metrics = true;
    s.metrics_before_finalize = true;
    return s;
}

/// Sum of the merged metrics whose names end in `suffix`.
std::uint64_t metrics_sum(const sweep_result& r, std::string_view suffix) {
    std::uint64_t sum = 0;
    for (const auto& [name, value] : r.metrics.entries()) {
        if (name.ends_with(suffix)) sum += value.count;
    }
    return sum;
}

TEST(scenario_pins, fig6) {
    const auto r = run_sweep(ic_kind::bluescale, fig6_scenario());
    EXPECT_EQ(r.count("feasible_trials"), 2u);
    EXPECT_EQ(metrics_sum(r, "mem/serviced"), 3'099u);
}

TEST(scenario_pins, fig6_metrics_precede_finalize) {
    // The Fig. 6 family snapshots its metrics before the clients are
    // finalized: jobs still unfinished at the horizon are not yet
    // counted abandoned in --metrics.
    const auto r = run_sweep(ic_kind::gsmtree_tdm, fig6_scenario());
    EXPECT_EQ(metrics_sum(r, "mem/serviced"), 2'318u);
    EXPECT_EQ(metrics_sum(r, "/missed"), 1'056u);
    EXPECT_EQ(metrics_sum(r, "/abandoned"), 0u);
}

TEST(scenario_pins, resilience) {
    scenario s;
    s.trials = 2;
    s.measure_cycles = 20'000;
    s.seed = 11;
    s.client_retry = true;
    s.health = core::health_config{};
    s.faults = sim::fault_campaign_config{.events_per_kcycle = 1.0};
    const auto r = run_sweep(ic_kind::bluescale, s);
    EXPECT_EQ(r.count("injected_events"), 40u);
    EXPECT_EQ(r.count("link_drops"), 67u);
    EXPECT_EQ(r.count("retries"), 151u);
    EXPECT_EQ(r.count("timeouts"), 151u);
    EXPECT_EQ(r.count("ecc_retries"), 107u);
    EXPECT_EQ(r.count("degrade_events"), 2u);
}

scenario reconfig_scenario() {
    scenario s;
    s.trials = 2;
    s.measure_cycles = 20'000;
    s.seed = 11;
    s.workload.best_effort_clients = 4;
    s.client_retry = true;
    s.health = core::health_config{};
    s.watchdog = core::watchdog_config{};
    s.reconfig = core::reconfig_config{};
    s.requests = sim::reconfig_schedule_config{.warmup = 2'000,
                                               .events_per_kcycle = 0.5};
    s.faults = sim::fault_campaign_config{.events_per_kcycle = 0.3};
    return s;
}

TEST(scenario_pins, reconfig) {
    const auto r = run_sweep(ic_kind::bluescale, reconfig_scenario());
    EXPECT_EQ(r.count("submitted"), 18u);
    EXPECT_EQ(r.count("admitted"), 3u);
    EXPECT_EQ(r.count("committed"), 1u);
    EXPECT_EQ(r.count("rolled_back"), 0u);
    EXPECT_EQ(r.count("transition_misses"), 0u);
    EXPECT_EQ(r.count("hard_misses"), 30u);
}

TEST(scenario_pins, reconfig_baseline_applies_unchecked) {
    // No admission control on BlueTree: every request lands directly.
    const auto r = run_sweep(ic_kind::bluetree, reconfig_scenario());
    EXPECT_EQ(r.count("applied_unchecked"), 18u);
    EXPECT_EQ(r.count("live_reconfigurations"), 18u);
    EXPECT_EQ(r.count("hard_misses"), 1'494u);
    EXPECT_EQ(r.count("best_effort_misses"), 914u);
}

TEST(scenario_pins, maintenance) {
    scenario s;
    s.trials = 3;
    s.measure_cycles = 30'000;
    s.seed = 1;
    s.memctrl.timing.t_refi = 975;
    s.memctrl.timing.t_rfc = 65;
    s.memctrl.maintenance.scrub_interval = 2048;
    s.memctrl.maintenance.scrub_duration = 32;
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
    s.maintenance_aware = true;
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
    const auto r = run_sweep(ic_kind::bluescale, s);
    // One trial is refused and not simulated: its storms never count.
    EXPECT_EQ(r.count("feasible_trials"), 2u);
    EXPECT_EQ(r.count("refreshes"), 492u);
    EXPECT_EQ(r.count("scrubs"), 28u);
    EXPECT_EQ(r.count("shed_events"), 8u);
    EXPECT_EQ(r.count("injected_events"), 30u);
    EXPECT_EQ(r.count("supply_shortfall_alarms"), 16u);
}

TEST(scenario_pins, svc_storm) {
    scenario s;
    s.trials = 2;
    s.measure_cycles = 12'000;
    s.seed = 11;
    s.workload.best_effort_clients = 4;
    s.client_retry = true;
    s.faults = sim::fault_campaign_config{.events_per_kcycle = 0.05};
    s.reconfig = core::reconfig_config{};
    s.requests = sim::reconfig_schedule_config{.warmup = 2'000,
                                               .events_per_kcycle = 4.0};
    s.service = service_stage{.worker_fault_intensity = 0.2};
    s.service->config.default_deadline = 8'000;
    const auto r = run_sweep(ic_kind::bluescale, s);
    EXPECT_EQ(r.count("submitted"), 80u);
    EXPECT_EQ(r.count("shed"), 36u);
    EXPECT_EQ(r.count("requeues"), 1u);
    EXPECT_EQ(r.count("committed"), 5u);
    EXPECT_EQ(r.count("request_retries"), 0u);
    EXPECT_EQ(r.count("conserved_trials"), 2u);
}

} // namespace
} // namespace bluescale::harness
