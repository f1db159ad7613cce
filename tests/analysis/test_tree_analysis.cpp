#include <gtest/gtest.h>

#include "analysis/tree_analysis.hpp"
#include "sim/rng.hpp"
#include "workload/taskset_gen.hpp"

namespace bluescale::analysis {
namespace {

/// evaluate_client_update + apply_client_update in one step; returns the
/// SEs-changed count.
std::uint32_t apply_update(tree_selection& sel,
                           std::vector<task_set>& clients,
                           std::uint32_t client, task_set new_tasks) {
    auto update =
        evaluate_client_update(sel, clients, client, std::move(new_tasks));
    const std::uint32_t changed = update.ses_changed;
    apply_client_update(std::move(update), sel, clients);
    return changed;
}

std::vector<task_set> uniform_clients(std::uint32_t n,
                                      const rt_task& task,
                                      std::uint32_t tasks_per_client = 1) {
    std::vector<task_set> out(n);
    for (auto& s : out) {
        for (std::uint32_t i = 0; i < tasks_per_client; ++i) {
            s.push_back(task);
        }
    }
    return out;
}

TEST(tree_analysis, feasible_for_light_uniform_load) {
    // 16 clients, each one task (200, 4): total U = 0.32.
    const auto sel =
        select_tree_interfaces(uniform_clients(16, {200, 4}));
    EXPECT_TRUE(sel.feasible) << sel.failure.to_string();
    EXPECT_LE(sel.root_bandwidth, 1.0 + 1e-9);
    EXPECT_GT(sel.root_bandwidth, 0.32);
}

TEST(tree_analysis, levels_match_shape) {
    const auto sel =
        select_tree_interfaces(uniform_clients(16, {200, 4}));
    ASSERT_EQ(sel.levels.size(), 2u);
    EXPECT_EQ(sel.levels[0].size(), 1u);
    EXPECT_EQ(sel.levels[1].size(), 4u);
}

TEST(tree_analysis, every_engaged_port_schedulable) {
    const auto clients = uniform_clients(16, {300, 6}, 2);
    const auto sel = select_tree_interfaces(clients);
    ASSERT_TRUE(sel.feasible) << sel.failure.to_string();
    // Leaf level: each port's interface must schedule its client's tasks.
    for (std::uint32_t y = 0; y < 4; ++y) {
        for (std::uint32_t p = 0; p < 4; ++p) {
            const auto& iface = sel.port_interface(1, y, p);
            ASSERT_TRUE(iface.has_value());
            EXPECT_EQ(is_schedulable(clients[4 * y + p], *iface),
                      sched_result::schedulable);
        }
    }
}

TEST(tree_analysis, parent_interfaces_schedule_child_servers) {
    const auto clients = uniform_clients(16, {300, 6}, 2);
    const auto sel = select_tree_interfaces(clients);
    ASSERT_TRUE(sel.feasible) << sel.failure.to_string();
    for (std::uint32_t p = 0; p < 4; ++p) {
        const auto& iface = sel.port_interface(0, 0, p);
        ASSERT_TRUE(iface.has_value());
        task_set servers;
        for (const auto& child_port : sel.levels[1][p].ports) {
            ASSERT_TRUE(child_port.has_value());
            if (child_port->budget > 0) {
                servers.push_back({child_port->period, child_port->budget});
            }
        }
        EXPECT_EQ(is_schedulable(servers, *iface),
                  sched_result::schedulable);
    }
}

TEST(tree_analysis, empty_clients_get_null_interfaces) {
    auto clients = uniform_clients(16, {200, 4});
    clients[5].clear();
    const auto sel = select_tree_interfaces(clients);
    ASSERT_TRUE(sel.feasible) << sel.failure.to_string();
    const auto& iface = sel.port_interface(1, 1, 1); // client 5
    ASSERT_TRUE(iface.has_value());
    EXPECT_EQ(iface->budget, 0u);
}

TEST(tree_analysis, padded_clients_beyond_count_are_null) {
    // 6 clients pad to a 16-capacity tree.
    const auto sel = select_tree_interfaces(uniform_clients(6, {100, 5}));
    ASSERT_TRUE(sel.feasible) << sel.failure.to_string();
    const auto& unused = sel.port_interface(1, 2, 0); // client 8
    ASSERT_TRUE(unused.has_value());
    EXPECT_EQ(unused->budget, 0u);
}

TEST(tree_analysis, overload_reported_infeasible) {
    // 16 clients x U=0.125 each = 2.0 total: the root must refuse.
    const auto sel = select_tree_interfaces(uniform_clients(16, {40, 5}));
    EXPECT_FALSE(sel.feasible);
    EXPECT_FALSE(sel.failure.empty());
}

TEST(tree_analysis, sixty_four_client_tree) {
    const auto sel =
        select_tree_interfaces(uniform_clients(64, {800, 4}));
    EXPECT_TRUE(sel.feasible) << sel.failure.to_string();
    ASSERT_EQ(sel.levels.size(), 3u);
    EXPECT_EQ(sel.levels[2].size(), 16u);
}

TEST(tree_analysis, realistic_random_workload_70pct) {
    rng r(7);
    auto sets =
        workload::make_client_tasksets(r, 16, 0.70, 0.70);
    std::vector<task_set> rt;
    for (const auto& s : sets) rt.push_back(workload::to_rt_tasks(s));
    const auto sel = select_tree_interfaces(rt);
    EXPECT_TRUE(sel.feasible) << sel.failure.to_string();
    EXPECT_LE(sel.root_bandwidth, 1.0 + 1e-9);
}

TEST(tree_analysis_update, incremental_matches_full_recompute) {
    auto clients = uniform_clients(16, {200, 4});
    auto sel = select_tree_interfaces(clients);
    ASSERT_TRUE(sel.feasible);

    auto clients_copy = clients;
    apply_update(sel, clients, 6, {{100, 8}});
    clients_copy[6] = {{100, 8}};
    const auto full = select_tree_interfaces(clients_copy);

    ASSERT_EQ(sel.feasible, full.feasible);
    for (std::uint32_t l = 0; l < sel.levels.size(); ++l) {
        for (std::uint32_t y = 0; y < sel.levels[l].size(); ++y) {
            for (std::uint32_t p = 0; p < k_se_fanin; ++p) {
                EXPECT_EQ(sel.levels[l][y].ports[p],
                          full.levels[l][y].ports[p])
                    << "SE(" << l << "," << y << ") port " << p;
            }
        }
    }
}

TEST(tree_analysis_update, touches_only_path_ses) {
    auto clients = uniform_clients(64, {800, 4});
    auto sel = select_tree_interfaces(clients);
    ASSERT_TRUE(sel.feasible);
    // The paper's property (Sec. 3.2): a task change updates only the SEs
    // on that client's request path -- at most leaf_level+1 of them.
    const auto changed = apply_update(sel, clients, 17, {{400, 8}});
    EXPECT_LE(changed, sel.shape.leaf_level + 1);
    EXPECT_GE(changed, 1u);
}

TEST(tree_analysis_update, off_path_interfaces_untouched) {
    auto clients = uniform_clients(64, {800, 4});
    auto sel = select_tree_interfaces(clients);
    ASSERT_TRUE(sel.feasible);
    const auto before = sel.levels;
    apply_update(sel, clients, 0, {{400, 8}});
    // Client 0's path: SE(2,0) -> SE(1,0) -> SE(0,0). Everything else at
    // the leaf/mid levels must be bit-identical.
    for (std::uint32_t y = 1; y < 16; ++y) {
        for (std::uint32_t p = 0; p < k_se_fanin; ++p) {
            EXPECT_EQ(sel.levels[2][y].ports[p], before[2][y].ports[p]);
        }
    }
    for (std::uint32_t y = 1; y < 4; ++y) {
        for (std::uint32_t p = 0; p < k_se_fanin; ++p) {
            EXPECT_EQ(sel.levels[1][y].ports[p], before[1][y].ports[p]);
        }
    }
}

TEST(tree_analysis_accounting, unused_ports_add_zero_to_every_bandwidth_sum) {
    // Satellite audit (se_interfaces::total_bandwidth): an unused port is
    // engaged with {0, 0}, and the Pi == 0 convention makes its bandwidth
    // exactly 0 -- so level sums and the root check see only real load.
    const auto sel = select_tree_interfaces(uniform_clients(5, {100, 5}));
    ASSERT_TRUE(sel.feasible) << sel.failure.to_string();

    const auto& shape = sel.shape;
    double engaged_sum = 0.0;
    for (std::uint32_t y = 0; y < sel.levels[shape.leaf_level].size(); ++y) {
        const auto& se = sel.levels[shape.leaf_level][y];
        double se_sum = 0.0;
        for (std::uint32_t p = 0; p < k_se_fanin; ++p) {
            const auto& iface = se.ports[p];
            ASSERT_TRUE(iface.has_value());
            if (4 * y + p >= 5) {
                // Unused (padded) port: engaged {0,0}, bandwidth 0.
                EXPECT_EQ(iface->period, 0u);
                EXPECT_EQ(iface->budget, 0u);
                EXPECT_EQ(iface->bandwidth(), 0.0);
            } else {
                EXPECT_GT(iface->bandwidth(), 0.0);
            }
            se_sum += iface->bandwidth();
        }
        // total_bandwidth() is exactly the engaged-port sum: the {0,0}
        // ports neither add nor subtract.
        EXPECT_EQ(se.total_bandwidth(), se_sum);
        engaged_sum += se_sum;
    }

    // The root check sums the level-1 server bandwidths; with 5 clients
    // three of the four level-1 subtrees are fully idle and must
    // contribute nothing.
    double root_sum = 0.0;
    for (const auto& se : sel.levels[0]) root_sum += se.total_bandwidth();
    EXPECT_EQ(sel.root_bandwidth, root_sum);
    // Server tasks only ever over-provision: the root carries at least
    // the leaf levels' engaged bandwidth, never the padded ports' zeros.
    EXPECT_GE(sel.root_bandwidth, engaged_sum - 1e-9);
}

TEST(tree_analysis_accounting, failed_port_sums_zero_but_marks_infeasible) {
    // A failed port (nullopt) also contributes 0 to every bandwidth sum
    // -- indistinguishable from an unused port by the sums alone. The
    // regression guarded here: feasibility must come from the structured
    // failure, never from a bandwidth check that the silent 0 would pass.
    auto clients = uniform_clients(16, {200, 4});
    clients[3] = {{10, 11}}; // U > 1: no interface can serve it
    const auto sel = select_tree_interfaces(clients);

    EXPECT_FALSE(sel.feasible);
    EXPECT_EQ(sel.failure.reason, selection_failure_reason::port_infeasible);
    EXPECT_EQ(sel.failure.level, sel.shape.leaf_level);
    EXPECT_EQ(sel.failure.order, sel.shape.leaf_se_of_client(3));
    EXPECT_EQ(sel.failure.port, sel.shape.leaf_port_of_client(3));

    const auto& se = sel.levels[sel.shape.leaf_level][sel.failure.order];
    EXPECT_FALSE(se.ports[sel.failure.port].has_value());
    // The sums still add up (the failed port reads as 0)...
    EXPECT_LE(sel.root_bandwidth, 1.0 + 1e-9);
    // ...which is exactly why the root check alone must never be the
    // feasibility verdict.
}

TEST(selection_failure_report, reports_the_exact_port_with_old_wording) {
    auto clients = uniform_clients(16, {200, 4});
    clients[6] = {{10, 11}};
    const auto sel = select_tree_interfaces(clients);
    ASSERT_EQ(sel.failure.reason,
              selection_failure_reason::port_infeasible);
    EXPECT_EQ(sel.failure.to_string(),
              "no feasible interface for SE(1,1) port 2");
}

TEST(selection_failure_report, root_overutilization_is_structured) {
    // Every client schedulable alone, but the total exceeds the root.
    const auto sel = select_tree_interfaces(uniform_clients(16, {40, 5}));
    ASSERT_FALSE(sel.feasible);
    EXPECT_EQ(sel.failure.reason,
              selection_failure_reason::root_overutilized);
    EXPECT_EQ(sel.failure.to_string(),
              "root resource over-utilized: total level-1 server "
              "bandwidth exceeds 1");
}

TEST(selection_failure_report, feasible_tree_reports_none) {
    const auto sel = select_tree_interfaces(uniform_clients(16, {200, 4}));
    ASSERT_TRUE(sel.feasible);
    EXPECT_TRUE(sel.failure.empty());
    EXPECT_EQ(sel.failure, selection_failure{});
    EXPECT_EQ(sel.failure.to_string(), "");
}

TEST(tree_analysis_update, can_make_system_infeasible_and_back) {
    auto clients = uniform_clients(16, {200, 4});
    auto sel = select_tree_interfaces(clients);
    ASSERT_TRUE(sel.feasible);
    // Overload one client.
    apply_update(sel, clients, 3, {{10, 11}});
    EXPECT_FALSE(sel.feasible);
    // Restore.
    apply_update(sel, clients, 3, {{200, 4}});
    EXPECT_TRUE(sel.feasible) << sel.failure.to_string();
}

} // namespace
} // namespace bluescale::analysis
