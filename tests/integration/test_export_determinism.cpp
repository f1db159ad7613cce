// The acceptance gate for the observability layer: the --metrics and
// --trace exports of the fig6 and resilience scenarios are
// byte-identical for any --threads setting. Serializes through the same
// obs writers the bench_cli --metrics/--trace flags use.
#include <gtest/gtest.h>

#include "harness/factory.hpp"
#include "harness/scenario.hpp"
#include "../test_util.hpp"

namespace bluescale::harness {
namespace {

using testing::expect_same_sweep;
using testing::snapshot_csv;
using testing::trace_csv;

scenario fig6_export_scenario(unsigned threads) {
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

TEST(export_determinism, fig6_exports_bit_identical_across_threads) {
    const auto serial = run_sweep(ic_kind::bluescale, fig6_export_scenario(1));
    const auto parallel =
        run_sweep(ic_kind::bluescale, fig6_export_scenario(4));

    ASSERT_FALSE(serial.metrics.empty());
    expect_same_sweep(serial, parallel);
    EXPECT_EQ(trace_csv(serial.trace), trace_csv(parallel.trace));
}

TEST(export_determinism, fig6_profile_never_leaks_into_metrics) {
    auto s = fig6_export_scenario(2);
    s.trials = 2;
    s.profile = true;
    const auto r = run_sweep(ic_kind::bluescale, s);
    EXPECT_FALSE(r.profile.empty());
    for (const auto& [name, value] : r.metrics.entries()) {
        EXPECT_EQ(value.flags & obs::k_metric_profile, 0u) << name;
        EXPECT_NE(name.rfind("profile/", 0), 0u) << name;
    }
    // And the deterministic export is unchanged by profiling being on.
    s.profile = false;
    const auto base = run_sweep(ic_kind::bluescale, s);
    EXPECT_EQ(snapshot_csv(base.metrics), snapshot_csv(r.metrics));
}

scenario resilience_export_scenario(unsigned threads) {
    scenario s;
    s.workload.n_clients = 16;
    s.trials = 3;
    s.measure_cycles = 8'000;
    s.seed = 11;
    s.threads = threads;
    s.client_retry = true;
    s.health = core::health_config{};
    s.faults = sim::fault_campaign_config{.events_per_kcycle = 1.0};
    s.collect_metrics = true;
    s.collect_trace = true;
    return s;
}

TEST(export_determinism, resilience_exports_bit_identical_across_threads) {
    const auto serial =
        run_sweep(ic_kind::bluescale, resilience_export_scenario(1));
    const auto parallel =
        run_sweep(ic_kind::bluescale, resilience_export_scenario(4));

    ASSERT_FALSE(serial.metrics.empty());
    expect_same_sweep(serial, parallel);
    EXPECT_EQ(trace_csv(serial.trace), trace_csv(parallel.trace));
}

#if BLUESCALE_TRACE_ENABLED
TEST(export_determinism, fig6_trace_carries_fabric_events) {
    const auto r = run_sweep(ic_kind::bluescale, fig6_export_scenario(2));
    ASSERT_FALSE(r.trace.events.empty());
    bool saw_grant = false;
    for (const auto& e : r.trace.events) {
        if (e.kind == obs::trace_event_kind::request_grant) saw_grant = true;
    }
    EXPECT_TRUE(saw_grant);
}
#endif

} // namespace
} // namespace bluescale::harness
