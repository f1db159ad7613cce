#include <gtest/gtest.h>

#include <cstdio>

#include "../test_util.hpp"
#include "sim/simulator.hpp"
#include "workload/trace.hpp"

namespace bluescale::workload {
namespace {

using bluescale::testing::loopback_interconnect;

trace make_trace() {
    return {
        {10, 0, 1, 0x1000, mem_op::read, 200},
        {12, 1, 2, 0x2000, mem_op::write, 300},
        {20, 0, 1, 0x1040, mem_op::read, 220},
        {25, 1, 2, 0x2040, mem_op::read, 320},
    };
}

TEST(trace_io, round_trips_through_csv) {
    const std::string path =
        bluescale::testing::temp_path_for_current_test(".csv");
    const trace original = make_trace();
    ASSERT_TRUE(save_trace(path, original));
    const trace loaded = load_trace(path);
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(loaded[i].issue_cycle, original[i].issue_cycle);
        EXPECT_EQ(loaded[i].client, original[i].client);
        EXPECT_EQ(loaded[i].task, original[i].task);
        EXPECT_EQ(loaded[i].addr, original[i].addr);
        EXPECT_EQ(loaded[i].op, original[i].op);
        EXPECT_EQ(loaded[i].abs_deadline, original[i].abs_deadline);
    }
    std::remove(path.c_str());
}

TEST(trace_io, load_missing_file_is_empty) {
    EXPECT_TRUE(load_trace("/nonexistent/trace.csv").empty());
}

TEST(trace_io, from_requests_sorts_by_issue_cycle) {
    std::vector<mem_request> done(2);
    done[0].issue_cycle = 50;
    done[0].client = 1;
    done[1].issue_cycle = 10;
    done[1].client = 0;
    const trace t = trace_from_requests(done);
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t[0].issue_cycle, 10u);
    EXPECT_EQ(t[1].issue_cycle, 50u);
}

TEST(trace_player, replays_only_its_client_slice) {
    loopback_interconnect net(2, 5);
    trace_player p0(0, make_trace(), net);
    trace_player p1(1, make_trace(), net);
    net.set_response_handler([&](mem_request&& r) {
        (r.client == 0 ? p0 : p1).on_response(std::move(r));
    });
    simulator sim;
    sim.add(p0);
    sim.add(p1);
    sim.add(net);
    sim.run(200);
    EXPECT_EQ(p0.stats().issued(), 2u);
    EXPECT_EQ(p1.stats().issued(), 2u);
    EXPECT_TRUE(p0.done());
    EXPECT_TRUE(p1.done());
    EXPECT_EQ(p0.stats().completed(), 2u);
}

TEST(trace_player, honors_recorded_issue_cycles) {
    loopback_interconnect net(1, 1);
    trace t{{100, 0, 1, 0, mem_op::read, 10'000}};
    trace_player p(0, t, net);
    net.set_response_handler(
        [&](mem_request&& r) { p.on_response(std::move(r)); });
    simulator sim;
    sim.add(p);
    sim.add(net);
    sim.run(50);
    EXPECT_EQ(p.stats().issued(), 0u) << "issued before its recorded cycle";
    sim.run(100);
    EXPECT_EQ(p.stats().issued(), 1u);
}

TEST(trace_player, detects_deadline_misses) {
    loopback_interconnect net(1, 500);
    trace t{{0, 0, 1, 0, mem_op::read, 100}};
    trace_player p(0, t, net);
    net.set_response_handler(
        [&](mem_request&& r) { p.on_response(std::move(r)); });
    simulator sim;
    sim.add(p);
    sim.add(net);
    sim.run(1000);
    EXPECT_EQ(p.stats().missed(), 1u);
}

TEST(trace_player, finalize_accounts_unreplayed_records) {
    loopback_interconnect net(1, 1);
    net.set_accepting(false);
    trace t{{0, 0, 1, 0, mem_op::read, 100}};
    trace_player p(0, t, net);
    simulator sim;
    sim.add(p);
    sim.add(net);
    sim.run(500);
    p.finalize(sim.now());
    EXPECT_EQ(p.stats().missed(), 1u);
    EXPECT_EQ(p.stats().abandoned(), 1u);
}

} // namespace
} // namespace bluescale::workload
