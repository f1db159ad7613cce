// Supply-conformance watchdog: online sbf conformance checks over
// sliding windows, typed alarms, and hysteresis-controlled overload
// shedding that protects hard real-time clients while best-effort
// clients absorb the loss.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/bluescale_ic.hpp"
#include "core/supply_watchdog.hpp"
#include "mem/memory_controller.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"
#include "workload/traffic_generator.hpp"

namespace bluescale::core {
namespace {

mem_request req(request_id_t id, client_id_t client, cycle_t deadline,
                std::uint64_t addr = 0) {
    mem_request r;
    r.id = id;
    r.client = client;
    r.addr = addr;
    r.abs_deadline = deadline;
    r.level_deadline = deadline;
    return r;
}

/// Fabric + controller + watchdog, ticked manually so tests can place
/// deadline misses and backlog exactly where they want them.
struct rig {
    explicit rig(watchdog_config cfg)
        : fabric(16),
          clients(16, analysis::task_set{{200, 4}}),
          selection(analysis::select_tree_interfaces(clients)) {
        EXPECT_TRUE(selection.feasible);
        fabric.attach_memory(mem);
        fabric.set_response_handler([](mem_request&&) {});
        fabric.configure(selection);
        wd = std::make_unique<supply_watchdog>(fabric, &selection, cfg);
    }

    /// Ticks [from, to], optionally flooding client 0 so its request
    /// path stays backlogged.
    void run(cycle_t from, cycle_t to, bool flood = false) {
        for (cycle_t t = from; t <= to; ++t) {
            if (flood && fabric.client_can_accept(0)) {
                fabric.client_push(0, req(next_id++, 0, 1'000'000'000));
            }
            fabric.tick(t);
            mem.tick(t);
            wd->tick(t);
            // Latched-queue semantics: pushes (and forwards) only become
            // visible after the commit phase, as under sim::simulator.
            fabric.commit();
            mem.commit();
        }
    }

    bluescale_ic fabric;
    memory_controller mem;
    std::vector<analysis::task_set> clients;
    analysis::tree_selection selection;
    std::unique_ptr<supply_watchdog> wd;
    request_id_t next_id = 1;
};

watchdog_config tight_config() {
    watchdog_config cfg;
    cfg.check_period = 100;
    cfg.shed_enter_windows = 2;
    cfg.restore_windows = 2;
    cfg.restore_backoff = 2;
    return cfg;
}

TEST(supply_watchdog, quiet_system_raises_no_alarms) {
    rig r(tight_config());
    r.wd->track_client(0, client_class::hard, [] { return 0ull; });
    r.run(0, 1000);
    const auto& rep = r.wd->report();
    EXPECT_GE(rep.windows_checked, 9u);
    EXPECT_EQ(rep.violating_windows, 0u);
    EXPECT_EQ(rep.supply_shortfall_alarms, 0u);
    EXPECT_EQ(rep.deadline_alarms, 0u);
    EXPECT_EQ(rep.shed_events, 0u);
    EXPECT_FALSE(r.wd->shedding_now());
}

TEST(supply_watchdog, hard_miss_streak_sheds_best_effort_with_hysteresis) {
    rig r(tight_config());
    std::uint64_t hard_missed = 0;
    bool be_shed = false;
    std::uint64_t alarms_shed = 0;
    std::uint64_t alarms_restore = 0;
    r.wd->track_client(0, client_class::hard,
                       [&] { return hard_missed; });
    r.wd->track_client(15, client_class::best_effort, [] { return 0ull; },
                       [&](bool on) { be_shed = on; });
    r.wd->set_alarm_hook([&](watchdog_alarm a, cycle_t) {
        if (a == watchdog_alarm::overload_shed) ++alarms_shed;
        if (a == watchdog_alarm::overload_restore) ++alarms_restore;
    });

    // One hard miss per window for 10 windows: shed after the second
    // violating check, then NO oscillation while the violation persists.
    for (cycle_t t = 0; t <= 1000; ++t) {
        if (t % 100 == 50) ++hard_missed;
        r.wd->tick(t);
    }
    EXPECT_TRUE(r.wd->shedding_now());
    EXPECT_TRUE(be_shed);
    EXPECT_EQ(r.wd->report().shed_events, 1u);
    EXPECT_EQ(alarms_shed, 1u);
    EXPECT_GT(r.wd->report().deadline_alarms, 0u);
    EXPECT_GT(r.wd->report().hard_misses, 0u);

    // Two clean windows satisfy the initial restore requirement.
    for (cycle_t t = 1001; t <= 1200; ++t) r.wd->tick(t);
    EXPECT_FALSE(r.wd->shedding_now());
    EXPECT_FALSE(be_shed);
    EXPECT_EQ(r.wd->report().restore_events, 1u);
    EXPECT_EQ(alarms_restore, 1u);

    // The overload returns: shed again after two violating windows...
    for (cycle_t t = 1201; t <= 1400; ++t) {
        if (t % 100 == 50) ++hard_missed;
        r.wd->tick(t);
    }
    EXPECT_TRUE(r.wd->shedding_now());
    EXPECT_EQ(r.wd->report().shed_events, 2u);

    // ...but restoration now needs 2 x backoff = 4 clean windows: still
    // shed after 3, restored after the 4th (oscillation is bounded).
    for (cycle_t t = 1401; t <= 1700; ++t) r.wd->tick(t);
    EXPECT_TRUE(r.wd->shedding_now());
    for (cycle_t t = 1701; t <= 1800; ++t) r.wd->tick(t);
    EXPECT_FALSE(r.wd->shedding_now());
    EXPECT_EQ(r.wd->report().restore_events, 2u);
    EXPECT_GT(r.wd->report().shed_client_cycles, 0u);
}

TEST(supply_watchdog, stalled_backlogged_port_raises_supply_shortfall) {
    watchdog_config cfg;
    cfg.check_period = 2048; // long windows so sbf(window) > 0
    rig r(cfg);
    // Client 0's leaf SE is stalled for the whole run while its port is
    // kept backlogged: delivered supply 0 < margin x sbf(window).
    r.fabric.se_at(1, 0).set_stall_faults(
        sim::fault_window({{sim::fault_kind::se_stall, 0, 0, 30'000}}));
    r.run(0, 20'000, /*flood=*/true);

    const auto& rep = r.wd->report();
    EXPECT_GT(rep.windows_checked, 0u);
    EXPECT_GT(rep.violating_windows, 0u);
    EXPECT_GT(rep.supply_shortfall_alarms, 0u);
    // The stall never lifts: the shortfall streak enters one shed episode
    // and no clean window ever restores it.
    EXPECT_EQ(rep.shed_events, 1u);
    EXPECT_EQ(rep.restore_events, 0u);
    EXPECT_TRUE(r.wd->shedding_now());
}

TEST(supply_watchdog, healthy_backlogged_port_conforms) {
    watchdog_config cfg;
    cfg.check_period = 2048;
    rig r(cfg);
    r.run(0, 20'000, /*flood=*/true);
    // A healthy fabric delivers at least sbf to a backlogged port (the
    // offline supply-conformance property, checked online): no alarms.
    EXPECT_GT(r.wd->report().windows_checked, 0u);
    EXPECT_EQ(r.wd->report().supply_shortfall_alarms, 0u);
    EXPECT_EQ(r.wd->report().shed_events, 0u);
}

TEST(supply_watchdog, alarm_mid_restore_rearms_the_clean_streak) {
    rig r(tight_config()); // shed after 2 bad windows, restore after 2 clean
    std::uint64_t missed = 0;
    r.wd->track_client(0, client_class::hard, [&] { return missed; });
    r.wd->track_client(15, client_class::best_effort, [] { return 0ull; });

    // Windows end at t = 100, 200, ... Two violating windows shed.
    for (cycle_t t = 0; t <= 200; ++t) {
        if (t % 100 == 50) ++missed;
        r.wd->tick(t);
    }
    ASSERT_TRUE(r.wd->shedding_now());

    // One clean window, then a violating one mid-restore: the clean
    // streak re-arms, so the next single clean window must NOT restore.
    for (cycle_t t = 201; t <= 300; ++t) r.wd->tick(t);       // clean
    for (cycle_t t = 301; t <= 400; ++t) {                    // violating
        if (t == 350) ++missed;
        r.wd->tick(t);
    }
    for (cycle_t t = 401; t <= 500; ++t) r.wd->tick(t);       // clean #1
    EXPECT_TRUE(r.wd->shedding_now()) << "restored on a re-armed streak";
    EXPECT_EQ(r.wd->report().restore_events, 0u);

    // The full requirement (2 consecutive clean windows) restores.
    for (cycle_t t = 501; t <= 600; ++t) r.wd->tick(t);       // clean #2
    EXPECT_FALSE(r.wd->shedding_now());
    EXPECT_EQ(r.wd->report().restore_events, 1u);
}

TEST(supply_watchdog, shedding_with_no_best_effort_clients_is_safe) {
    rig r(tight_config());
    // Hard clients only: there is nothing to shed, but the alarm and
    // hysteresis machinery must neither divide by zero nor starve the
    // hard class.
    std::uint64_t missed = 0;
    bool hard_shed_called = false;
    r.wd->track_client(0, client_class::hard, [&] { return missed; },
                       [&](bool) { hard_shed_called = true; });
    r.wd->track_client(1, client_class::hard, [] { return 0ull; });

    for (cycle_t t = 0; t <= 500; ++t) {
        if (t % 100 == 50) ++missed;
        r.wd->tick(t);
    }
    // The overload episode is entered and alarmed...
    EXPECT_TRUE(r.wd->shedding_now());
    EXPECT_EQ(r.wd->report().shed_events, 1u);
    EXPECT_GT(r.wd->report().deadline_alarms, 0u);
    // ...but hard clients are never shed, even as the only population.
    EXPECT_FALSE(hard_shed_called);

    // Recovery restores cleanly with an empty shed set.
    for (cycle_t t = 501; t <= 800; ++t) r.wd->tick(t);
    EXPECT_FALSE(r.wd->shedding_now());
    EXPECT_EQ(r.wd->report().restore_events, 1u);
}

TEST(supply_watchdog, reset_clears_state_and_report) {
    rig r(tight_config());
    std::uint64_t missed = 0;
    r.wd->track_client(0, client_class::hard, [&] { return missed; });
    r.wd->track_client(15, client_class::best_effort, [] { return 0ull; });
    for (cycle_t t = 0; t <= 400; ++t) {
        if (t % 100 == 50) ++missed;
        r.wd->tick(t);
    }
    ASSERT_TRUE(r.wd->shedding_now());
    r.wd->reset();
    EXPECT_FALSE(r.wd->shedding_now());
    EXPECT_EQ(r.wd->report().windows_checked, 0u);
    EXPECT_EQ(r.wd->report().shed_events, 0u);
}

// Sustained overload under a stalled best-effort subtree: the watchdog
// sheds the best-effort clients (their issue streams throttle, their
// misses mount) while every hard real-time client keeps its contract and
// misses ZERO deadlines.
TEST(supply_watchdog, shedding_protects_hard_clients_under_overload) {
    constexpr std::uint32_t n = 16;
    constexpr cycle_t run_cycles = 40'000;

    // Admitted contracts are modest for everyone; the best-effort
    // clients (12-15, behind leaf SE(1, 3)) actually flood far beyond
    // their admitted demand, and their subtree is stalled on top.
    std::vector<analysis::task_set> rt(n, analysis::task_set{{200, 4}});
    auto selection = analysis::select_tree_interfaces(rt);
    ASSERT_TRUE(selection.feasible);

    bluescale_ic fabric(n);
    memory_controller mem;
    fabric.attach_memory(mem);
    fabric.configure(selection);
    fabric.se_at(1, 3).set_stall_faults(sim::fault_window(
        {{sim::fault_kind::se_stall, 0, 0, run_cycles}}));

    watchdog_config cfg;
    cfg.check_period = 2048;
    cfg.shed_enter_windows = 2;
    cfg.restore_windows = 2;
    cfg.restore_backoff = 2;
    supply_watchdog wd(fabric, &selection, cfg);

    std::vector<std::unique_ptr<workload::traffic_generator>> clients;
    for (std::uint32_t c = 0; c < n; ++c) {
        const bool best_effort = c >= 12;
        workload::memory_task_set tasks{
            best_effort
                ? workload::memory_task{0, 50, 40, false}  // util 0.8
                : workload::memory_task{0, 200, 4, false}}; // util 0.02
        clients.push_back(std::make_unique<workload::traffic_generator>(
            c, std::move(tasks), fabric, 100 + c));
        auto* client = clients.back().get();
        wd.track_client(
            c,
            best_effort ? client_class::best_effort : client_class::hard,
            [client] { return client->stats().missed(); },
            [client](bool on) { client->set_shed(on); });
    }
    fabric.set_response_handler([&](mem_request&& r) {
        clients[r.client]->on_response(std::move(r));
    });

    simulator sim;
    for (auto& c : clients) sim.add(*c);
    sim.add(fabric);
    sim.add(mem);
    sim.add(wd); // last, as in harness::testbench
    sim.run(run_cycles);
    for (auto& c : clients) c->finalize(sim.now());

    const auto& rep = wd.report();
    EXPECT_GT(rep.supply_shortfall_alarms, 0u);
    EXPECT_GE(rep.shed_events, 1u);
    EXPECT_GT(rep.shed_client_cycles, 0u);

    std::uint64_t hard_missed = 0;
    std::uint64_t be_missed = 0;
    std::uint64_t shed_cycles = 0;
    for (std::uint32_t c = 0; c < n; ++c) {
        const auto& s = clients[c]->stats();
        if (c >= 12) {
            be_missed += s.missed();
            shed_cycles += s.shed_cycles();
        } else {
            hard_missed += s.missed();
        }
    }
    // Hard real-time clients ride through untouched; the best-effort
    // class absorbs the whole loss.
    EXPECT_EQ(hard_missed, 0u);
    EXPECT_GT(be_missed, 0u);
    EXPECT_GT(shed_cycles, 0u);
}

} // namespace
} // namespace bluescale::core
