// Compositional EDF schedulability test on a periodic resource
// (paper Sec. 5, Theorem 1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/demand_bound.hpp"
#include "analysis/maintenance.hpp"
#include "analysis/periodic_resource.hpp"
#include "analysis/rt_task.hpp"

namespace bluescale::analysis {

/// Outcome of a schedulability test, distinguishing "provably schedulable"
/// from both "provably not" and "test aborted" (bound too large to check
/// exhaustively -- treated as unschedulable, which is conservative).
enum class sched_result : std::uint8_t {
    schedulable,
    unschedulable,
    aborted,
};

/// Work counters for estimating the hardware interface selector's FSM
/// runtime (core::interface_selector) and for test assertions.
struct sched_test_stats {
    std::uint64_t tests_run = 0;      ///< schedulability tests invoked
    std::uint64_t points_checked = 0; ///< dbf/sbf comparisons performed
    /// Cheap-first ladder outcomes: candidates the linear-time sufficient
    /// portfolio decided outright vs. those that fell through (`aborted`)
    /// to the pseudo-polynomial exact test. Only advanced when
    /// sched_test_config::cheap_first is set.
    std::uint64_t ladder_cheap_decided = 0;
    std::uint64_t ladder_exact_fallbacks = 0;
    /// Selection-cache outcomes (analysis::selection_cache). A hit replays
    /// the cached entry's tests_run/points_checked/ladder counters into
    /// this struct, so the work totals are identical with the cache on or
    /// off; only these two counters reveal the cache.
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;

    sched_test_stats& operator+=(const sched_test_stats& other) {
        tests_run += other.tests_run;
        points_checked += other.points_checked;
        ladder_cheap_decided += other.ladder_cheap_decided;
        ladder_exact_fallbacks += other.ladder_exact_fallbacks;
        cache_hits += other.cache_hits;
        cache_misses += other.cache_misses;
        return *this;
    }

    friend bool operator==(const sched_test_stats&,
                           const sched_test_stats&) = default;
};

struct sched_test_config {
    /// Upper limit on the number of dbf step points inspected before the
    /// test conservatively aborts. Theorem 1's bound beta explodes as the
    /// interface bandwidth approaches the task-set utilization; aborting
    /// keeps the interface-selection search total.
    std::uint64_t max_test_points = 1u << 20;
    /// Optional work counters, accumulated across calls when set.
    sched_test_stats* stats = nullptr;
    /// Device maintenance charged against the supply. The test compares
    /// dbf against the maintenance-corrected sbf and uses the corrected
    /// Theorem 1 bound; an empty model (the default) reproduces the
    /// uncorrected test bit-for-bit.
    maintenance_model maintenance = {};
    /// Cheap-first test ladder: is_schedulable() tries the linear-time
    /// sufficient portfolio first and runs the pseudo-polynomial exact
    /// test only when the portfolio returns `aborted` (undecided). Both
    /// rungs are sound, so a laddered verdict can differ from the
    /// exact-only verdict only where the exact test itself would abort
    /// (work cap) -- there the ladder may still prove schedulability.
    /// Default false reproduces the exact test bit-for-bit.
    bool cheap_first = false;
};

/// Theorem 1 test bound:
///   beta = 2*(Theta/Pi)*(Pi - Theta) / (Theta/Pi - U)
/// Only defined when bandwidth > U; returns 0 otherwise.
[[nodiscard]] double theorem1_beta(const resource_interface& iface,
                                   double task_utilization);

/// The schedulability test, prepared once for one task set under one
/// configuration and then run against many candidate interfaces (interface
/// selection probes O(Pi_max log Pi_max) of them per task set).
///
/// Prepare (the constructor): the set's utilization (summed in task
/// order, bit-identical to utilization()), its minimum active period and
/// active-task count (active: T_i, C_i > 0), the point cap per active
/// task, the maintenance model's 1 - mu, burst (as a double) and
/// emptiness, and -- only when `cfg` runs the sufficient rung, in
/// O(n log n) -- that rung's breakpoints: at each distinct period, the
/// cumulative utilization of every task with that period or a shorter
/// one. A set with more active tasks than the walk keeps on the stack
/// also gets its walk cursors here. Nothing else allocates.
///
/// Probe (test(), allocation-free), one fused pass:
///  1. the necessary filters, once for both rungs: the integer blackout
///     filter, then the bandwidth bw and the Theorem 1 bound beta from
///     the prepared terms;
///  2. with cheap_first, the sufficient portfolio's horizon collapse and
///     linear checks (see is_schedulable_sufficient);
///  3. the exact rung: "schedulable" outright when the horizon lies below
///     the minimum period; the point cap (one division while n times
///     floor(horizon / T_min) is within it); then an ascending walk of the
///     dbf step points that keeps each task's next multiple, so no point
///     divides, and evaluates the supply without a division while
///     t - (Pi - Theta) < Pi.
/// Verdicts and sched_test_stats counts are exactly those of the
/// unprepared sufficient-then-exact sequence, because the counts are model
/// outputs -- they price the hardware selector's reconfiguration latency
/// (core::interface_selector, core::parameter_path).
///
/// The kernel refers to `tasks` and `cfg`, which must outlive it. A probe
/// may use the prepared walk cursors, so one kernel serves one thread.
class sched_kernel {
public:
    sched_kernel(const task_set& tasks, const sched_test_config& cfg);
    // A temporary would dangle before the first probe.
    sched_kernel(task_set&&, const sched_test_config&) = delete;
    sched_kernel(const task_set&, sched_test_config&&) = delete;

    /// The rung ladder `cfg` selects: the sufficient portfolio then the
    /// exact test on an undecided verdict (cheap_first), or the exact test
    /// alone.
    [[nodiscard]] sched_result test(const resource_interface& iface) const;

    /// The sufficient portfolio alone (see is_schedulable_sufficient).
    /// Its breakpoints are prepared only for a `cfg` with cheap_first set.
    [[nodiscard]] sched_result
    sufficient(const resource_interface& iface) const;

    /// The smallest budget Theta for which test({period, Theta}) is
    /// schedulable, by binary search (schedulability is monotone in
    /// Theta), or nullopt when even Theta == period is not; 0 for an
    /// empty task set. See min_budget_for_period.
    [[nodiscard]] std::optional<std::uint64_t>
    min_budget(std::uint64_t period) const;

    /// utilization(tasks), computed once.
    [[nodiscard]] double utilization() const { return u_; }

private:
    struct breakpoint {
        std::uint64_t period;
        double u_acc; ///< utilization of every task with T_i <= period
    };
    /// One active task on the exact rung's walk.
    struct cursor {
        std::uint64_t period;
        std::uint64_t wcet;
        std::uint64_t next; ///< its smallest multiple not yet walked
    };
    /// Active tasks the walk keeps in a stack array; more spill into
    /// cursors_, prepared once.
    static constexpr std::size_t k_stack_cursors = 8;

    // The probe's parts. Inline, and defined in schedulability.cpp, the
    // only translation unit that calls them: test() and min_budget's
    // search each get the whole probe without a call.

    /// test()'s body.
    [[nodiscard]] inline sched_result
    probe(const resource_interface& iface) const;
    /// What the filters compute and both rungs reuse.
    struct theorem1_terms {
        double bw = 0.0;   ///< Theta / Pi
        double beta = 0.0; ///< maintenance_beta(iface, U, maintenance)
    };
    /// The necessary filters shared by both rungs: true when one proves
    /// `iface` unschedulable; otherwise fills `terms`.
    [[nodiscard]] inline bool fails_necessary(const resource_interface& iface,
                                              theorem1_terms& terms) const;
    /// The portfolio's horizon collapse and linear checks, past the
    /// filters; `aborted` when undecided.
    [[nodiscard]] inline sched_result
    linear(const resource_interface& iface,
           const theorem1_terms& terms) const;
    /// The exact rung past the filters.
    [[nodiscard]] inline sched_result
    walk(const resource_interface& iface, const theorem1_terms& terms) const;
    /// maintenance_sbf(t, iface, cfg.maintenance), with no division while
    /// t - (Pi - Theta) < Pi.
    [[nodiscard]] inline std::uint64_t
    supply(std::uint64_t t, const resource_interface& iface) const;

    const task_set& tasks_;
    const sched_test_config& cfg_;
    double u_;
    double one_minus_mu_;
    double burst_;
    bool no_maintenance_;
    std::uint64_t min_period_ = 0; ///< over the active tasks
    std::size_t n_active_ = 0;
    /// max_test_points / n_active_: a walk of at most this many points
    /// per task cannot exceed the cap.
    std::uint64_t cap_per_task_ = 0;
    std::vector<breakpoint> breakpoints_;
    mutable std::vector<cursor> cursors_; ///< only past k_stack_cursors
};

/// Checks dbf(t, tasks) <= sbf(t, iface) for all t < beta (sufficient by
/// Theorem 1 for all t). Requires iface.bandwidth() > utilization(tasks)
/// as a necessary precondition; returns unschedulable when violated.
/// A one-shot sched_kernel; prepare one to test many interfaces.
[[nodiscard]] sched_result is_schedulable(const task_set& tasks,
                                          const resource_interface& iface,
                                          const sched_test_config& cfg = {});

/// Linear-time sufficient-test portfolio (the cheap rung of the
/// cheap-first test ladder), answered by sched_kernel::sufficient on a
/// kernel prepared with cheap_first:
///
///  1. necessary filters shared with the exact test: effective bandwidth
///     above utilization, and the first-job blackout check -- a failure
///     here is a proof of unschedulability;
///  2. horizon collapse: when every task period exceeds the Theorem 1
///     bound beta, no dbf step point exists inside the test horizon and
///     the set is schedulable outright;
///  3. linear demand vs. linear supply: dbf(t) <= (sum of utilizations of
///     tasks with T_i <= t) * t, checked against the linear supply lower
///     bound bw*((1 - mu)*t - burst - 2*(Pi - Theta)) at each distinct
///     period (the only points where the demand bound's slope jumps; in
///     between, supply grows strictly faster than demand).
///
/// Sound in both directions but incomplete: returns `aborted` when no
/// test decides (callers treat that as unschedulable, conservatively).
/// Work is an O(n log n) prepare (sorting the periods), then O(n) per
/// probed interface, with no dependence on beta; a sched_kernel pays the
/// prepare once for all its probes.
[[nodiscard]] sched_result
is_schedulable_sufficient(const task_set& tasks,
                          const resource_interface& iface,
                          const sched_test_config& cfg = {});

} // namespace bluescale::analysis
