// Acceptance gate for the analysis-service storm scenario: under
// overload, worker crash/stall faults and fabric path hazards, no
// request deadlocks or disappears -- every submission lands in exactly
// one of {committed, rejected(reason), expired, shed}, hard clients
// never miss, and the whole sweep is byte-identical for any --threads
// setting and for the event vs lockstep engines.
#include <gtest/gtest.h>

#include "harness/scenario.hpp"
#include "sim/simulator.hpp"
#include "../test_util.hpp"

namespace bluescale::harness {
namespace {

using testing::expect_same_sweep;
using testing::scoped_engine;

scenario small_storm(unsigned threads) {
    scenario s;
    s.trials = 2;
    s.measure_cycles = 12'000;
    s.seed = 11;
    s.threads = threads;
    s.collect_metrics = true;
    s.workload.best_effort_clients = 4;
    s.client_retry = true;
    s.faults = sim::fault_campaign_config{.events_per_kcycle = 0.05};
    s.reconfig = core::reconfig_config{};
    // Past the queue bound: shedding fires.
    s.requests = sim::reconfig_schedule_config{.warmup = 2'000,
                                               .events_per_kcycle = 4.0};
    s.service = service_stage{.worker_fault_intensity = 0.2};
    s.service->config.default_deadline = 8'000;
    return s;
}

TEST(svc_storm, conserves_requests_and_protects_hard_clients) {
    // Overload + worker faults only: a fabric-side fault campaign could
    // legitimately stall a hard client's subtree, which is the supply
    // watchdog's problem, not the service's. The service-level storm
    // must never touch the fabric's hard guarantees.
    auto s = small_storm(1);
    s.faults.reset();
    const auto r = run_sweep(ic_kind::bluescale, s);
    EXPECT_EQ(r.count("feasible_trials"), s.trials);
    EXPECT_EQ(r.count("drained_trials"), s.trials);
    EXPECT_EQ(r.count("conserved_trials"), s.trials);
    EXPECT_GT(r.count("submitted"), 0u);
    // Exactly one terminal outcome per request, summed over all trials.
    EXPECT_EQ(r.count("submitted"), r.count("shed") + r.count("expired") +
                                        r.count("committed") +
                                        r.count("rejected"));
    // The storm actually overloads: the bounded queue shed work, and the
    // robustness machinery saw real faults.
    EXPECT_GT(r.count("shed"), 0u);
    EXPECT_GT(r.count("worker_crashes") + r.count("worker_stall_cycles"),
              0u);
    // Hard real-time clients ride through the whole storm untouched.
    EXPECT_EQ(r.count("hard_misses"), 0u);
}

TEST(svc_storm, thread_count_does_not_change_results) {
    const auto one = run_sweep(ic_kind::bluescale, small_storm(1));
    const auto four = run_sweep(ic_kind::bluescale, small_storm(4));
    expect_same_sweep(one, four);
}

TEST(svc_storm, event_and_lockstep_engines_agree) {
    sweep_result event_r;
    {
        scoped_engine guard(simulator::engine::event);
        event_r = run_sweep(ic_kind::bluescale, small_storm(2));
    }
    sweep_result lockstep_r;
    {
        scoped_engine guard(simulator::engine::lockstep);
        lockstep_r = run_sweep(ic_kind::bluescale, small_storm(2));
    }
    expect_same_sweep(event_r, lockstep_r);
}

} // namespace
} // namespace bluescale::harness
