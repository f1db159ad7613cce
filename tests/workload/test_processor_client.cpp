#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "sim/simulator.hpp"
#include "workload/automotive_profiles.hpp"
#include "workload/processor_client.hpp"

namespace bluescale::workload {
namespace {

using bluescale::testing::loopback_interconnect;

compute_task task(task_id_t id, cycle_t period, std::uint32_t compute,
                  std::uint32_t mem,
                  task_category cat = task_category::function) {
    compute_task t;
    t.name = "t" + std::to_string(id);
    t.id = id;
    t.category = cat;
    t.period = period;
    t.compute_cycles = compute;
    t.mem_requests = mem;
    return t;
}

struct rig {
    explicit rig(compute_task_set tasks, cycle_t latency = 10)
        : net(1, latency), proc(0, std::move(tasks), net, 7) {
        net.set_response_handler(
            [this](mem_request&& r) { proc.on_response(std::move(r)); });
        sim.add(proc);
        sim.add(net);
    }
    loopback_interconnect net;
    processor_client proc;
    simulator sim;
};

TEST(processor_client, completes_jobs_with_slack) {
    // Period 1000, compute 100, 2 requests at latency 10: finishes well
    // within the deadline.
    rig r({task(1, 1000, 100, 2)});
    r.sim.run(10'000);
    EXPECT_EQ(r.proc.stats(task_category::function).completed, 10u);
    EXPECT_EQ(r.proc.stats(task_category::function).missed, 0u);
}

TEST(processor_client, issues_declared_memory_requests) {
    rig r({task(1, 1000, 100, 5)});
    r.sim.run(10'000);
    EXPECT_EQ(r.proc.mem_requests_issued(), 50u);
}

TEST(processor_client, memory_stalls_extend_execution) {
    // Compute 100 + 10 requests x latency 100 ~= 1100 > period 500:
    // every job must miss.
    rig slow({task(1, 500, 100, 10)}, /*latency=*/100);
    slow.sim.run(20'000);
    const auto& s = slow.proc.stats(task_category::function);
    ASSERT_GT(s.completed, 0u);
    EXPECT_EQ(s.missed, s.completed);
}

TEST(processor_client, stats_split_by_category) {
    rig r({task(1, 2000, 100, 1, task_category::safety),
           task(2, 2000, 100, 1, task_category::function),
           task(3, 2000, 100, 1, task_category::interference)});
    r.sim.run(10'000);
    EXPECT_GT(r.proc.stats(task_category::safety).completed, 0u);
    EXPECT_GT(r.proc.stats(task_category::function).completed, 0u);
    EXPECT_GT(r.proc.stats(task_category::interference).completed, 0u);
}

TEST(processor_client, interference_misses_do_not_fail_app_criterion) {
    // Only an (infeasible) interference task runs: its misses must not
    // trip the paper's success criterion, which counts safety/function
    // tasks only.
    rig r({task(2, 300, 295, 2, task_category::interference)});
    r.sim.run(20'000);
    EXPECT_GT(r.proc.stats(task_category::interference).missed, 0u);
    EXPECT_FALSE(r.proc.app_deadline_missed());
}

TEST(processor_client, preemptive_edf_protects_short_period_task) {
    // A long job (compute 5000) runs alongside a short-period task
    // (period 500, compute 50). Preemptive EDF must keep the short task
    // meeting deadlines even while the long one executes.
    rig r({task(1, 20'000, 5000, 1), task(2, 500, 50, 1)});
    r.sim.run(40'000);
    const auto& s = r.proc.stats(task_category::function);
    EXPECT_EQ(s.missed, 0u) << "short-period task starved";
    EXPECT_GT(s.completed, 70u);
}

TEST(processor_client, finalize_counts_overdue_backlog) {
    // Loopback never responds within the horizon: the first job stalls
    // forever; later releases pile up past their deadlines.
    rig r({task(1, 500, 100, 1)}, /*latency=*/1'000'000);
    r.sim.run(5'000);
    EXPECT_EQ(r.proc.stats(task_category::function).completed, 0u);
    r.proc.finalize(r.sim.now());
    EXPECT_GT(r.proc.stats(task_category::function).missed, 0u);
    EXPECT_TRUE(r.proc.app_deadline_missed());
}

TEST(processor_client, requests_carry_job_deadline) {
    loopback_interconnect net(1, 1);
    bool checked = false;
    processor_client proc(0, {task(9, 700, 50, 1)}, net, 7);
    net.set_response_handler([&](mem_request&& r) {
        EXPECT_EQ(r.client, 0u);
        EXPECT_EQ(r.task, 9);
        EXPECT_EQ(r.abs_deadline % 700, 0u); // k*period deadlines
        checked = true;
        proc.on_response(std::move(r));
    });
    simulator sim;
    sim.add(proc);
    sim.add(net);
    sim.run(3000);
    EXPECT_TRUE(checked);
}

TEST(automotive_profiles, twenty_case_study_tasks) {
    rng r(3);
    const auto tasks = make_case_study_tasks(r, 16);
    ASSERT_EQ(tasks.size(), 20u);
    int safety = 0, function = 0;
    for (const auto& t : tasks) {
        if (t.category == task_category::safety) ++safety;
        if (t.category == task_category::function) ++function;
        EXPECT_GT(t.period, 0u);
        EXPECT_GT(t.compute_cycles, 0u);
        EXPECT_GE(t.mem_requests, 1u);
        EXPECT_LE(t.compute_utilization(), 0.36);
    }
    EXPECT_EQ(safety, 10);
    EXPECT_EQ(function, 10);
}

TEST(automotive_profiles, interference_task_hits_target_utilization) {
    rng r(5);
    for (double u : {0.05, 0.1, 0.2}) {
        const auto t = make_interference_task(r, 42, u);
        EXPECT_NEAR(t.compute_utilization(), u, 0.01);
        EXPECT_EQ(t.category, task_category::interference);
    }
}

} // namespace
} // namespace bluescale::workload
