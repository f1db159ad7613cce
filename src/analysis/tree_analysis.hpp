// Whole-tree interface selection: resolves the paper's per-level interface
// selection problems bottom-up (level L down to level 0) and verifies the
// root resource is not over-utilized (paper Sec. 5, closing paragraph).
//
// Selection scales to mega-trees (ROADMAP item 2): with
// analysis_context::threads > 1 the per-SE selections of one level run in
// parallel (sibling subtrees are independent below the root bandwidth
// check) under the trial_runner-style ordered-merge discipline, and with
// a selection_cache attached identical (task set, period bound) subtree
// profiles are resolved once. Both are bit-identical to the serial,
// uncached selection.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/analysis_context.hpp"
#include "analysis/interface_selection.hpp"
#include "analysis/quadtree.hpp"
#include "analysis/rt_task.hpp"

namespace bluescale::analysis {

/// Interfaces of one SE's four local client ports (the parameters of its
/// four server tasks tau_A..tau_D). nullopt means selection failed for that
/// port; an engaged {0,0} means the port is unused (no tasks behind it).
struct se_interfaces {
    std::array<std::optional<resource_interface>, k_se_fanin> ports;

    /// Sum of the engaged ports' bandwidths. An engaged {0,0} (unused
    /// port) contributes exactly 0 (resource_interface::bandwidth()
    /// defines Theta/Pi as 0 when Pi == 0), and a failed port (nullopt)
    /// also contributes 0 -- the sum alone cannot distinguish them, which
    /// is why feasibility is tracked separately by selection_failure:
    /// a failed port marks the tree infeasible even though every
    /// bandwidth sum (level context, root check) still adds up.
    [[nodiscard]] double total_bandwidth() const {
        double bw = 0.0;
        for (const auto& p : ports) {
            if (p) bw += p->bandwidth();
        }
        return bw;
    }
};

/// Why a whole-tree selection is infeasible.
enum class selection_failure_reason : std::uint8_t {
    none,              ///< feasible
    port_infeasible,   ///< no feasible interface for one SE port
    root_overutilized, ///< total level-1 server bandwidth exceeds 1
};

/// Structured infeasibility report: the failing reason plus, for
/// port_infeasible, the exact SE(level, order) port. Replaces the old
/// free-form failure string; use to_string() for human-readable output.
struct selection_failure {
    selection_failure_reason reason = selection_failure_reason::none;
    std::uint32_t level = 0;
    std::uint32_t order = 0;
    std::uint32_t port = 0;

    [[nodiscard]] bool empty() const {
        return reason == selection_failure_reason::none;
    }
    [[nodiscard]] std::string to_string() const;

    friend bool operator==(const selection_failure&,
                           const selection_failure&) = default;
};

/// Result of resolving every level's interface selection problem.
struct tree_selection {
    quadtree_shape shape;
    /// levels[l][y] = interfaces of SE(l, y); l in [0, L].
    std::vector<std::vector<se_interfaces>> levels;
    bool feasible = false;
    /// Sum of level-1 server bandwidths at the root; must be <= 1.
    double root_bandwidth = 0.0;
    /// First failure encountered (levels scanned leaf-to-root, SEs and
    /// ports in ascending order), or reason == none when feasible.
    selection_failure failure;

    [[nodiscard]] const std::optional<resource_interface>&
    port_interface(std::uint32_t level, std::uint32_t order,
                   std::uint32_t port) const {
        return levels[level][order].ports[port];
    }
};

/// Resolves all interface selection problems for a quadtree whose leaves
/// run the given per-client task sets (client_tasks[c] is client mu.c's
/// local task set; missing/extra leaf ports are treated as empty).
///
/// ctx.threads parallelizes the per-SE selections within each level;
/// ctx.cache memoizes per-port selections. The selected interfaces, the
/// failure report and the accumulated sched_test_stats work totals are
/// bit-identical for every threads value and with the cache on or off
/// (only the cache_hits/cache_misses split depends on scheduling).
[[nodiscard]] tree_selection
select_tree_interfaces(const std::vector<task_set>& client_tasks,
                       const analysis_context& ctx = {});

/// Result of a const, re-entrant incremental reselection (paper
/// Sec. 3.2's third property: tasks joining/leaving one client only
/// perturb that client's request path). Produced by
/// evaluate_client_update; committed by apply_client_update.
struct client_update {
    tree_selection selection;
    std::vector<task_set> client_tasks;
    std::uint32_t ses_changed = 0;
};

/// Incremental reselection after tasks join/leave one client, without
/// touching the committed state: interfaces are recomputed only along
/// that client's request path, reading `selection`/`client_tasks` through
/// const references. Safe for concurrent evaluators (e.g. the analysis
/// service's worker pool) sharing one committed state. Commit the result
/// with apply_client_update.
[[nodiscard]] client_update
evaluate_client_update(const tree_selection& selection,
                       const std::vector<task_set>& client_tasks,
                       std::uint32_t client, task_set new_tasks,
                       const analysis_context& ctx = {});

/// The explicit apply step: moves an evaluated update into the committed
/// state. Purely a state swap -- no reselection happens here, so commit
/// cost is O(1) in analysis work regardless of tree size.
void apply_client_update(client_update&& update, tree_selection& selection,
                         std::vector<task_set>& client_tasks);

} // namespace bluescale::analysis
