#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "harness/testbench.hpp"
#include "workload/taskset_gen.hpp"
#include "workload/traffic_generator.hpp"

namespace bluescale::harness {
namespace {

struct rig {
    std::vector<workload::memory_task_set> tasksets;
    std::vector<std::unique_ptr<workload::traffic_generator>> clients;
    std::unique_ptr<testbench> tb;
};

rig make_rig(ic_kind kind, std::uint32_t n_clients, std::uint64_t seed,
             bool with_selection = false, bool trace = false) {
    rig r;
    rng rnd(seed);
    r.tasksets =
        workload::make_client_tasksets(rnd, n_clients, 0.6, 0.6);

    testbench_options opts;
    opts.n_clients = n_clients;
    opts.trace = trace;
    for (const auto& ts : r.tasksets) {
        opts.client_utilizations.push_back(workload::utilization(ts));
    }
    std::vector<analysis::task_set> rt_sets;
    if (with_selection) {
        for (const auto& ts : r.tasksets) {
            rt_sets.push_back(workload::to_rt_tasks(ts));
        }
        opts.rt_sets = &rt_sets; // consumed by the constructor below
    }
    r.tb = std::make_unique<testbench>(kind, opts);

    workload::traffic_gen_config tg_cfg;
    tg_cfg.unit_cycles = r.tb->unit_cycles();
    for (std::uint32_t c = 0; c < n_clients; ++c) {
        r.clients.push_back(std::make_unique<workload::traffic_generator>(
            c, r.tasksets[c], r.tb->ic(), seed + c, tg_cfg));
        auto* client = r.clients.back().get();
        r.tb->add_client(c, *client, [client](mem_request&& req) {
            client->on_response(std::move(req));
        });
    }
    return r;
}

TEST(testbench, assembles_and_runs_every_design) {
    for (ic_kind kind : k_extended_kinds) {
        auto r = make_rig(kind, 16, 11, kind == ic_kind::bluescale);
        r.tb->run(10'000);
        EXPECT_EQ(r.tb->now(), 10'000u) << kind_name(kind);
        std::uint64_t completed = 0;
        for (auto& c : r.clients) {
            c->finalize(r.tb->now());
            completed += c->stats().completed();
        }
        EXPECT_GT(completed, 0u) << kind_name(kind);
    }
}

TEST(testbench, routes_responses_to_the_registered_client) {
    auto r = make_rig(ic_kind::bluetree, 16, 23);
    r.tb->run(10'000);
    // Every client that issued requests must have gotten responses back:
    // completions are recorded by the per-client sink, so cross-routing
    // would leave some client permanently throttled at max_outstanding.
    for (auto& c : r.clients) {
        c->finalize(r.tb->now());
        EXPECT_GT(c->stats().completed(), 0u) << "client " << c->id();
    }
}

TEST(testbench, resolves_selection_for_bluescale) {
    auto r = make_rig(ic_kind::bluescale, 16, 31, true);
    EXPECT_TRUE(r.tb->selection_feasible());
    EXPECT_GT(r.tb->selection().root_bandwidth, 0.0);
}

TEST(testbench, no_selection_without_rt_sets) {
    auto r = make_rig(ic_kind::bluescale, 16, 31, false);
    EXPECT_FALSE(r.tb->selection_feasible());
    r.tb->run(5'000); // unconfigured fabric still runs (pure nested EDF)
    EXPECT_EQ(r.tb->now(), 5'000u);
}

TEST(testbench, se_override_builds_bluescale_variant) {
    rng rnd(5);
    auto tasksets = workload::make_client_tasksets(rnd, 16, 0.5, 0.5);
    testbench_options opts;
    opts.n_clients = 16;
    core::se_params se;
    se.buffer_depth = 4;
    opts.bluescale_se = se;
    for (const auto& ts : tasksets) {
        opts.client_utilizations.push_back(workload::utilization(ts));
    }
    testbench tb(ic_kind::bluescale, opts);

    workload::traffic_gen_config tg_cfg;
    tg_cfg.unit_cycles = tb.unit_cycles();
    workload::traffic_generator client(0, tasksets[0], tb.ic(), 77, tg_cfg);
    tb.add_client(0, client, [&client](mem_request&& req) {
        client.on_response(std::move(req));
    });
    tb.run(5'000);
    client.finalize(tb.now());
    EXPECT_GT(client.stats().completed(), 0u);
}

TEST(testbench, records_the_trace_only_when_asked) {
    auto quiet = make_rig(ic_kind::bluescale, 16, 53, true);
    auto traced = make_rig(ic_kind::bluescale, 16, 53, true, true);
    quiet.tb->run(5'000);
    traced.tb->run(5'000);

    const auto silent = quiet.tb->trace().export_all();
    EXPECT_TRUE(silent.events.empty());
    EXPECT_TRUE(silent.components.empty());
#if BLUESCALE_TRACE_ENABLED
    EXPECT_FALSE(traced.tb->trace().export_all().events.empty());
#endif
    // Recording is observation only: the clients see the same run.
    for (std::uint32_t c = 0; c < 16; ++c) {
        quiet.clients[c]->finalize(quiet.tb->now());
        traced.clients[c]->finalize(traced.tb->now());
        EXPECT_EQ(quiet.clients[c]->stats().completed(),
                  traced.clients[c]->stats().completed());
    }
}

TEST(testbench, run_accumulates_cycles) {
    auto r = make_rig(ic_kind::gsmtree_tdm, 16, 41);
    r.tb->run(1'000);
    r.tb->run(2'000);
    EXPECT_EQ(r.tb->now(), 3'000u);
}

} // namespace
} // namespace bluescale::harness
