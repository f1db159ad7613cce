// The acceptance gate for the event-driven engine: the hybrid
// skip-to-next-event scheduler and the BLUESCALE_LOCKSTEP cycle-stepped
// fallback must produce byte-identical exports -- same metrics snapshot,
// same event trace, same aggregates -- for every experiment, at any
// --threads setting. A horizon that sleeps through real work or a wake
// that fires a cycle late shows up here as a diff, not as a silent
// result shift.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "analysis/tree_analysis.hpp"
#include "core/bluescale_ic.hpp"
#include "harness/factory.hpp"
#include "harness/scenario.hpp"
#include "mem/memory_controller.hpp"
#include "sim/fault.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "../test_util.hpp"
#include "workload/memory_task.hpp"
#include "workload/taskset_gen.hpp"
#include "workload/traffic_generator.hpp"

namespace bluescale::harness {
namespace {

using testing::expect_same_sweep;
using testing::scoped_engine;
using testing::snapshot_csv;
using testing::trace_json;

scenario fig6_scenario(unsigned threads) {
    scenario s;
    s.workload.n_clients = 16;
    s.trials = 4;
    s.measure_cycles = 8'000;
    s.seed = 7;
    s.threads = threads;
    s.seeding = client_seeding::fig6_xor;
    s.collect_metrics = true;
    s.metrics_before_finalize = true;
    s.collect_trace = true;
    return s;
}

/// The same scenario under both engines: totals, metrics and trace must
/// agree byte for byte.
void expect_engines_agree(ic_kind kind, const scenario& s) {
    sweep_result event_r, lockstep_r;
    {
        scoped_engine guard(simulator::engine::event);
        event_r = run_sweep(kind, s);
    }
    {
        scoped_engine guard(simulator::engine::lockstep);
        lockstep_r = run_sweep(kind, s);
    }
    ASSERT_FALSE(event_r.metrics.empty());
    expect_same_sweep(event_r, lockstep_r);
}

TEST(engine_equivalence, fig6_all_designs_bit_identical) {
    for (const ic_kind kind : k_all_kinds) {
        SCOPED_TRACE(kind_name(kind));
        expect_engines_agree(kind, fig6_scenario(1));
    }
}

TEST(engine_equivalence, fig6_event_engine_thread_invariant) {
    // The event engine must keep the determinism contract lockstep
    // already honours: per-trial simulations are independent, so the
    // sweep's thread count cannot change a byte of the export.
    sweep_result serial, parallel;
    {
        scoped_engine guard(simulator::engine::event);
        serial = run_sweep(ic_kind::bluescale, fig6_scenario(1));
        parallel = run_sweep(ic_kind::bluescale, fig6_scenario(4));
    }
    ASSERT_FALSE(serial.metrics.empty());
    expect_same_sweep(serial, parallel);
}

TEST(engine_equivalence, resilience_faulty_run_bit_identical) {
    // Fault campaigns exercise the wake paths idle skipping must never
    // sleep through: injected storms, link drops, retry timeouts, ECC
    // reissues.
    scenario s;
    s.workload.n_clients = 16;
    s.trials = 3;
    s.measure_cycles = 8'000;
    s.seed = 11;
    s.threads = 4;
    s.client_retry = true;
    s.health = core::health_config{};
    s.faults = sim::fault_campaign_config{.events_per_kcycle = 1.0};
    s.collect_metrics = true;
    s.collect_trace = true;
    expect_engines_agree(ic_kind::bluescale, s);
}

TEST(engine_equivalence, reconfig_run_bit_identical) {
    // Mid-run reconfigurations rewrite task sets and SE schedules while
    // components sleep; the admission/watchdog supervisors are the
    // components with the longest horizons, so this is the sternest test
    // of the wake protocol.
    scenario s;
    s.workload.n_clients = 16;
    s.trials = 3;
    s.measure_cycles = 8'000;
    s.seed = 13;
    s.threads = 4;
    s.workload.best_effort_clients = 4;
    s.client_retry = true;
    s.health = core::health_config{};
    s.watchdog = core::watchdog_config{};
    s.reconfig = core::reconfig_config{};
    s.requests = sim::reconfig_schedule_config{.warmup = 1'000,
                                               .events_per_kcycle = 2.0};
    s.collect_metrics = true;
    s.collect_trace = true;
    expect_engines_agree(ic_kind::bluescale, s);
}

TEST(engine_equivalence, service_storm_run_bit_identical) {
    // The analysis service takes each request from outside the
    // simulation, between runs, and traces it on the trace clock. After
    // an idle skip that clock must read the last skipped cycle, as it
    // does after lockstep steps through those cycles.
    scenario s;
    s.workload.n_clients = 16;
    s.trials = 2;
    s.measure_cycles = 6'000;
    s.seed = 3;
    s.threads = 2;
    s.workload.best_effort_clients = 4;
    s.client_retry = true;
    s.faults = sim::fault_campaign_config{.events_per_kcycle = 0.05};
    s.reconfig = core::reconfig_config{};
    s.service = service_stage{.worker_fault_intensity = 0.05};
    s.service->config.default_deadline = 20'000;
    s.requests = sim::reconfig_schedule_config{.warmup = 2'000,
                                               .events_per_kcycle = 8.0};
    s.collect_metrics = true;
    s.collect_trace = true;
    expect_engines_agree(ic_kind::bluescale, s);
}

/// Everything a depth-4 trial exports: per-client results as CSV, the
/// metrics snapshot and the event trace.
struct deep_exports {
    std::string csv;
    std::string metrics;
    std::string trace;
};

/// One 256-client BlueScale trial (depth 4: 85 SEs and 258 simulator
/// components, so both wake schedules span several 64-bit words) under
/// an SE-stall + link-drop campaign. Assembled by hand to reach the
/// fabric's SE and link fault hooks directly.
deep_exports run_deep_tree(simulator::engine engine) {
    constexpr std::uint32_t n_clients = 256;
    constexpr cycle_t cycles = 12'000;
    rng workload_rng(29);
    const workload::taskset_params params = {
        .n_tasks = 4,
        .total_utilization = 0.05,
        .min_period_units = 40,
        .max_period_units = 600,
        .write_fraction = 0.3,
    };
    const auto tasksets = workload::make_client_tasksets(
        workload_rng, n_clients, 0.30, 0.40, params);
    std::vector<analysis::task_set> rt_sets;
    for (const auto& ts : tasksets) {
        rt_sets.push_back(workload::to_rt_tasks(ts));
    }
    const auto selection = analysis::select_tree_interfaces(rt_sets, {});
    EXPECT_TRUE(selection.feasible);

    sim::fault_campaign_config fc;
    fc.seed = 31;
    fc.horizon = cycles;
    fc.events_per_kcycle = 4.0;
    fc.dram_error_weight = 0.0;
    fc.backpressure_weight = 0.0;
    fc.n_elements = analysis::make_quadtree_shape(n_clients).total_ses();
    const sim::fault_campaign campaign(fc);
    EXPECT_GT(campaign.count(sim::fault_kind::se_stall), 0u);
    EXPECT_GT(campaign.count(sim::fault_kind::link_drop), 0u);

    obs::registry reg;
    obs::trace_sink sink;
    memory_controller mem;
    core::se_params se;
    se.unit_cycles = memctrl_config{}.initiation_interval;
    core::bluescale_ic ic(n_clients, se);
    ic.configure(selection);
    ic.inject_campaign(campaign);
    ic.attach_memory(mem);
    ic.bind_observability(reg, &sink);
    mem.bind_observability(reg, sink.register_component("mem"));

    simulator sim(engine);
    sim.bind_trace(sink);
    if (engine == simulator::engine::lockstep) {
        ic.set_selective_ticking(false);
    }
    std::vector<std::unique_ptr<workload::traffic_generator>> clients;
    workload::traffic_gen_config tg_cfg;
    tg_cfg.unit_cycles = se.unit_cycles;
    tg_cfg.retry_timeout_cycles = 2048;
    tg_cfg.max_retries = 3;
    for (std::uint32_t c = 0; c < n_clients; ++c) {
        clients.push_back(std::make_unique<workload::traffic_generator>(
            c, tasksets[c], ic, 0x5851f42d4c957f2dull + c, tg_cfg));
        clients.back()->bind_observability(reg);
        sim.add(*clients.back());
    }
    ic.set_response_handler([&clients](mem_request&& r) {
        clients[r.client]->on_response(std::move(r));
    });
    sim.add(ic);
    sim.add(mem);
    sim.run(cycles);

    deep_exports out;
    std::ostringstream csv;
    csv << "client,issued,completed,missed,retries,stale,p99_latency\n";
    for (std::uint32_t c = 0; c < n_clients; ++c) {
        clients[c]->finalize(sim.now());
        const auto& s = clients[c]->stats();
        csv << c << ',' << s.issued() << ',' << s.completed() << ','
            << s.missed() << ',' << s.retries() << ','
            << s.stale_responses() << ','
            << s.latency_cycles().percentile(99.0) << '\n';
    }
    std::uint64_t stall_windows = 0;
    for (std::uint32_t l = 0; l <= ic.shape().leaf_level; ++l) {
        for (std::uint32_t y = 0; y < ic.shape().ses_at_level(l); ++y) {
            stall_windows += ic.se_at(l, y).stall_windows_entered();
        }
    }
    csv << "stall_windows," << stall_windows << '\n';
    csv << "link_dropped," << ic.link_dropped() << '\n';
    out.csv = csv.str();
    out.metrics = snapshot_csv(reg.take_snapshot());
    out.trace = trace_json(sink.export_all());
    return out;
}

TEST(engine_equivalence, deep_tree_256_clients_bit_identical) {
    const deep_exports event = run_deep_tree(simulator::engine::event);
    const deep_exports lockstep = run_deep_tree(simulator::engine::lockstep);
    ASSERT_NE(event.csv.find("link_dropped,"), std::string::npos);
    EXPECT_EQ(event.csv.find("stall_windows,0\n"), std::string::npos)
        << "no SE stall window opened";
    EXPECT_EQ(event.csv.find("link_dropped,0\n"), std::string::npos)
        << "the campaign dropped nothing";
    EXPECT_EQ(event.csv, lockstep.csv);
    EXPECT_EQ(event.metrics, lockstep.metrics);
    EXPECT_EQ(event.trace, lockstep.trace);
}

} // namespace
} // namespace bluescale::harness
