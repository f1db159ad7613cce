#include "analysis/tree_analysis.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

namespace bluescale::analysis {

std::string selection_failure::to_string() const {
    switch (reason) {
    case selection_failure_reason::none:
        return "";
    case selection_failure_reason::port_infeasible:
        return "no feasible interface for SE(" + std::to_string(level) +
               "," + std::to_string(order) + ") port " +
               std::to_string(port);
    case selection_failure_reason::root_overutilized:
        return "root resource over-utilized: total level-1 server "
               "bandwidth exceeds 1";
    }
    return "";
}

namespace {

/// The task set a non-leaf SE port sees: the child SE's engaged server
/// tasks, each treated as the task (T = Pi, C = Theta). Unused child
/// ports (engaged {0,0}) and failed child ports (nullopt) both vanish
/// from the parent's task set; the latter has already latched a
/// port_infeasible failure, so the parent-level numbers are only
/// reported, never trusted, on that path.
task_set child_server_tasks(const se_interfaces& child) {
    task_set tasks;
    for (const auto& port : child.ports) {
        if (port && port->budget > 0) {
            tasks.push_back(rt_task{port->period, port->budget});
        }
    }
    return tasks;
}

/// Total selected bandwidth across a level (the next level's U_{l+2}).
double level_bandwidth(const std::vector<se_interfaces>& level) {
    double bw = 0.0;
    for (const auto& se : level) bw += se.total_bandwidth();
    return bw;
}

task_set tasks_of_client(const std::vector<task_set>& client_tasks,
                         std::uint32_t client) {
    if (client < client_tasks.size()) return client_tasks[client];
    return {};
}

void finalize(tree_selection& sel) {
    sel.root_bandwidth = sel.levels[0][0].total_bandwidth();
    if (sel.failure.empty() && sel.root_bandwidth > 1.0 + 1e-9) {
        sel.failure.reason = selection_failure_reason::root_overutilized;
    }
    sel.feasible = sel.failure.empty();
}

/// trial_runner-style deterministic work sharing: workers claim SE
/// indices from an atomic counter and write results into index-addressed
/// slots only, so the merge order (and therefore every output bit) is
/// independent of thread scheduling. The first worker exception is
/// rethrown after the join.
void parallel_for(std::uint32_t n, unsigned threads,
                  const std::function<void(std::uint32_t)>& fn) {
    unsigned workers = threads == 0 ? std::thread::hardware_concurrency()
                                    : threads;
    if (workers == 0) workers = 1;
    if (workers > n) workers = n;
    if (workers <= 1) {
        for (std::uint32_t i = 0; i < n; ++i) fn(i);
        return;
    }

    std::atomic<std::uint32_t> next{0};
    std::mutex error_mu;
    std::exception_ptr first_error;
    auto body = [&] {
        for (;;) {
            const std::uint32_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n) return;
            try {
                fn(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(error_mu);
                if (!first_error) first_error = std::current_exception();
            }
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w) pool.emplace_back(body);
    body();
    for (auto& t : pool) t.join();
    if (first_error) std::rethrow_exception(first_error);
}

/// Resolves one level's selections: each SE's four ports serially, SEs in
/// parallel. Per-SE work counters land in index-addressed slots and merge
/// in ascending order; the first failure latches in ascending (order,
/// port) position -- both identical to the serial scan.
void select_level(tree_selection& sel, std::uint32_t l, double u_level,
                  const analysis_context& ctx,
                  const std::function<task_set(std::uint32_t, std::uint32_t)>&
                      port_tasks) {
    const auto n = static_cast<std::uint32_t>(sel.levels[l].size());
    std::vector<sched_test_stats> slot_stats(
        ctx.sched.stats != nullptr ? n : 0);

    parallel_for(n, ctx.threads, [&](std::uint32_t y) {
        analysis_context local = ctx;
        local.sched.stats =
            ctx.sched.stats != nullptr ? &slot_stats[y] : nullptr;
        for (std::uint32_t p = 0; p < k_se_fanin; ++p) {
            sel.levels[l][y].ports[p] =
                select_interface(port_tasks(y, p), u_level, local);
        }
    });

    if (ctx.sched.stats != nullptr) {
        for (std::uint32_t y = 0; y < n; ++y) {
            *ctx.sched.stats += slot_stats[y];
        }
    }
    if (sel.failure.empty()) {
        for (std::uint32_t y = 0; y < n && sel.failure.empty(); ++y) {
            for (std::uint32_t p = 0; p < k_se_fanin; ++p) {
                if (!sel.levels[l][y].ports[p]) {
                    sel.failure = selection_failure{
                        selection_failure_reason::port_infeasible, l, y, p};
                    break;
                }
            }
        }
    }
}

/// Shared core of the incremental reselection: mutates `sel` and
/// `client_tasks` along the client's request path. Both public entry
/// points (the const evaluate + apply pair and the deprecated mutating
/// form) funnel here.
std::uint32_t reselect_client_path(tree_selection& sel,
                                   std::vector<task_set>& client_tasks,
                                   std::uint32_t client, task_set new_tasks,
                                   const analysis_context& ctx) {
    assert(client < sel.shape.padded_clients);
    if (client >= client_tasks.size()) client_tasks.resize(client + 1);
    client_tasks[client] = std::move(new_tasks);
    sel.failure = {};

    const std::uint32_t depth = sel.shape.leaf_level;
    std::uint32_t changed_ses = 0;

    // Leaf level: only this client's port is reselected.
    double u_level = 0.0;
    for (const auto& tasks : client_tasks) u_level += utilization(tasks);

    std::uint32_t order = sel.shape.leaf_se_of_client(client);
    std::uint32_t port = sel.shape.leaf_port_of_client(client);
    {
        auto iface = select_interface(client_tasks[client], u_level, ctx);
        if (!iface) {
            sel.failure = selection_failure{
                selection_failure_reason::port_infeasible, depth, order,
                port};
        }
        if (sel.levels[depth][order].ports[port] != iface) {
            sel.levels[depth][order].ports[port] = iface;
            ++changed_ses;
        }
    }

    // Walk the request path to the root, reselecting the single affected
    // port at each level. All SEs off the path keep their parameters.
    for (std::uint32_t l = depth; l-- > 0;) {
        const double u_children = level_bandwidth(sel.levels[l + 1]);
        const std::uint32_t child_order = order;
        order = quadtree_shape::parent_order(child_order);
        port = quadtree_shape::parent_port(child_order);
        const task_set tasks =
            child_server_tasks(sel.levels[l + 1][child_order]);
        auto iface = select_interface(tasks, u_children, ctx);
        if (!iface && sel.failure.empty()) {
            sel.failure = selection_failure{
                selection_failure_reason::port_infeasible, l, order, port};
        }
        if (sel.levels[l][order].ports[port] != iface) {
            sel.levels[l][order].ports[port] = iface;
            ++changed_ses;
        }
    }

    finalize(sel);
    return changed_ses;
}

} // namespace

tree_selection
select_tree_interfaces(const std::vector<task_set>& client_tasks,
                       const analysis_context& ctx) {
    tree_selection sel;
    sel.shape = make_quadtree_shape(
        static_cast<std::uint32_t>(std::max<std::size_t>(client_tasks.size(), 1)));
    const std::uint32_t depth = sel.shape.leaf_level;
    sel.levels.resize(depth + 1);
    for (std::uint32_t l = 0; l <= depth; ++l) {
        sel.levels[l].resize(sel.shape.ses_at_level(l));
    }

    // Level L: VEs are system clients; tasks are the Local Tasks.
    double u_level = 0.0;
    for (const auto& tasks : client_tasks) u_level += utilization(tasks);

    select_level(sel, depth, u_level, ctx,
                 [&](std::uint32_t y, std::uint32_t p) {
                     const std::uint32_t client =
                         quadtree_shape::child_order(y, p);
                     return tasks_of_client(client_tasks, client);
                 });

    // Levels L-1 .. 0: VEs are child SEs; tasks are their server tasks.
    // Levels stay serial with respect to each other (level l reads level
    // l+1's results); only the SEs within a level run in parallel.
    for (std::uint32_t l = depth; l-- > 0;) {
        const double u_children = level_bandwidth(sel.levels[l + 1]);
        select_level(sel, l, u_children, ctx,
                     [&](std::uint32_t y, std::uint32_t p) {
                         const std::uint32_t child =
                             quadtree_shape::child_order(y, p);
                         return child_server_tasks(sel.levels[l + 1][child]);
                     });
    }

    finalize(sel);
    return sel;
}

client_update
evaluate_client_update(const tree_selection& selection,
                       const std::vector<task_set>& client_tasks,
                       std::uint32_t client, task_set new_tasks,
                       const analysis_context& ctx) {
    client_update out;
    out.selection = selection;
    out.client_tasks = client_tasks;
    out.ses_changed =
        reselect_client_path(out.selection, out.client_tasks, client,
                             std::move(new_tasks), ctx);
    return out;
}

void apply_client_update(client_update&& update, tree_selection& selection,
                         std::vector<task_set>& client_tasks) {
    selection = std::move(update.selection);
    client_tasks = std::move(update.client_tasks);
}

} // namespace bluescale::analysis
