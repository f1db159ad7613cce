// Hybrid event-driven / cycle-stepped simulation engine.
//
// The default engine skips dead time: after every tick the simulator
// files each component's next_event() horizon in a sim::wake_schedule,
// only re-ticks components whose horizon is due, and -- when every
// component is idle -- advances the clock straight to the earliest wakeup
// instead of stepping through empty cycles. Producers re-arm sleeping
// consumers through sim::wake_hook (queue pushes, supervisor
// reprogramming), so no work is ever missed.
//
// Setting BLUESCALE_LOCKSTEP=1 in the environment (or constructing with
// engine::lockstep) falls back to the classic cycle-stepped loop that
// ticks and commits every component every cycle. Both engines produce
// bit-identical simulations: the determinism suite diffs their exports.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/component.hpp"
#include "sim/types.hpp"
#include "sim/wake_schedule.hpp"

namespace bluescale {

/// Drives a set of components with a shared clock. Components are owned by
/// the caller (typically a system model that also wires them together); the
/// simulator only sequences them.
class simulator {
public:
    enum class engine : std::uint8_t {
        event,   ///< skip-to-next-event scheduling (default)
        lockstep ///< tick + commit every component every cycle
    };

    /// The engine new simulators start with: engine::event unless the
    /// BLUESCALE_LOCKSTEP environment variable is set to a non-empty,
    /// non-"0" value, or a test overrode it with set_default_engine().
    [[nodiscard]] static engine default_engine();
    /// Process-wide override for tests that compare the two engines.
    static void set_default_engine(engine e);
    /// Drops the override, restoring the environment-derived default.
    static void clear_default_engine();

    simulator() : engine_(default_engine()) {}
    explicit simulator(engine e) : engine_(e) {}

    [[nodiscard]] engine mode() const { return engine_; }

    // Assembly-time registration; the hot-path marking is a name collision
    // (obs counter `add()` handle increments inside tick bodies resolve
    // here by name).
    // detlint:allow(hotpath-alloc): assembly-time registration
    void add(component& c) { components_.push_back(&c); }

    [[nodiscard]] cycle_t now() const { return now_; }

    /// Keeps `sink`'s trace clock in lockstep with the simulation: every
    /// step publishes the current cycle before components tick, so emit
    /// sites without a `now` argument in scope stamp the right cycle.
    void bind_trace(obs::trace_sink& sink) { trace_ = &sink; }

    /// Opt-in simulator profiling: registers profile-flagged wall-clock
    /// metrics ("profile/sim/cycles", "profile/sim/wall_ns", and
    /// "profile/<component>/tick_ns" per added component) into `reg` and
    /// starts timing every step. Costs two clock reads per ticked
    /// component (every component under lockstep) plus two per stepped
    /// cycle -- leave off outside profiling runs. Under the event
    /// engine "profile/sim/cycles" counts stepped (not skipped) cycles.
    void enable_profiling(obs::registry& reg);

    /// Runs for `cycles` additional cycles.
    void run(cycle_t cycles);

    /// Runs until `done()` returns true or `max_cycles` elapse. Returns
    /// true if the predicate fired, with now() at the firing cycle.
    ///
    /// Contract: the predicate must be a pure function of component /
    /// system state, not of now() -- the event engine evaluates it only
    /// when state can have changed (once per stepped cycle, plus once
    /// before each idle skip), which is observationally equivalent for
    /// state predicates and identical to lockstep's once-per-cycle
    /// cadence there. Time limits belong in `max_cycles`. With a zero
    /// budget the predicate is evaluated exactly once and no cycle runs.
    template <typename Pred>
    bool run_until(Pred&& done, cycle_t max_cycles) {
        const cycle_t end = now_ + max_cycles;
        if (now_ >= end) return done(); // zero budget: evaluate, don't step
        // `checked` records that the predicate was already evaluated for
        // the current now_ (just before an idle skip, over state no tick
        // has touched since), so it is not re-evaluated on loop entry.
        bool checked = false;
        while (now_ < end) {
            if (!checked && done()) return true;
            checked = false;
            step();
            if (engine_ == engine::event && now_ < end) {
                const cycle_t due = std::min(end, std::max(now_, next_due()));
                if (due > now_) {
                    // All components idle until `due`: state is frozen, so
                    // one evaluation covers every cycle in [now_, due).
                    if (done()) return true;
                    skip_to(due);
                    checked = true;
                }
            }
        }
        // The predicate was already evaluated for every reachable state in
        // the budget; exhausting it means it never fired.
        return false;
    }

    /// Advances exactly one cycle (ticking only due components in event
    /// mode, everything in lockstep).
    void step();

private:
    void step_profiled();
    void sync_profile_handles();
    void commit_phase();
    /// Grows the schedule to cover every added component and rebinds each
    /// component's wake() into it (growth can relocate its bitset).
    void rebind_wake_schedule();

    /// Earliest cycle at which some component is due (k_cycle_never when
    /// everything is quiescent). Read by the run loops right after a
    /// step(); commit() implementations are pure latches (they never fire
    /// wakes), so the value seen there is the one the next step acts on.
    [[nodiscard]] cycle_t next_due() const { return schedule_.next_due(); }

    /// The event engine's idle skip: jumps the clock to `due` over cycles
    /// that provably do nothing. The trace clock ends on the last skipped
    /// cycle, where lockstep's per-cycle step() leaves it, so an event
    /// emitted between runs (a request submitted from outside the
    /// simulation) carries the same cycle under both engines.
    void skip_to(cycle_t due) {
        now_ = due;
        if (trace_ != nullptr) trace_->set_now(due - 1);
    }

    engine engine_;
    std::vector<component*> components_;
    /// Event-engine schedule, one slot per component in components_
    /// order: due bitset plus timer heap (see sim::wake_schedule).
    sim::wake_schedule schedule_;
    /// Components whose commit() is a real clock edge (latches() == true);
    /// the event engine's commit phase calls only these -- the rest are
    /// no-ops by declaration, so skipping them is behaviour-preserving.
    std::vector<component*> committers_;
    cycle_t now_ = 0;
    obs::trace_sink* trace_ = nullptr;
    bool profiling_ = false;
    obs::registry* prof_reg_ = nullptr;
    obs::counter prof_cycles_;
    obs::counter prof_wall_ns_;
    std::vector<obs::counter> prof_tick_ns_; ///< parallel to components_
};

} // namespace bluescale
