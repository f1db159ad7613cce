// Base class for clocked hardware components.
#pragma once

#include <cstdint>
#include <string>

#include "sim/types.hpp"
#include "sim/wake.hpp"

namespace bluescale {

/// A clocked component. The simulator calls tick() once per cycle on every
/// registered component (combinational + sequential work for that cycle),
/// then commit() on every component (clock edge: latch outputs). Components
/// that communicate exclusively through latched_queue interfaces are
/// insensitive to tick ordering.
///
/// Under the event-driven engine (see simulator::engine) a component may
/// additionally declare, via next_event(), the earliest future cycle at
/// which it could need to run again; the simulator skips its tick() until
/// then. Producers that hand a sleeping component new work re-arm it with
/// wake(). Horizons must be conservative and wakes liberal: an extra tick
/// can never change behaviour (ticks are idempotent on idle state by the
/// two-phase contract), only a missed one can.
class component {
public:
    /// `latches` declares that this component's commit() latches state
    /// (it overrides the no-op default). The event engine calls commit()
    /// only on latching components each stepped cycle; a subclass that
    /// overrides commit() without passing latches = true will silently
    /// skip its clock edges there, so the two must travel together.
    explicit component(std::string name, bool latches = false)
        : name_(std::move(name)), latches_(latches) {}
    virtual ~component() = default;

    component(const component&) = delete;
    component& operator=(const component&) = delete;

    /// Evaluate one cycle at time `now`.
    virtual void tick(cycle_t now) = 0;

    /// Clock edge: make this cycle's outputs visible to consumers.
    /// Overriders must construct with latches = true (see the ctor) or
    /// the event engine will skip their edges.
    virtual void commit() {}

    /// True when commit() is a real clock edge rather than the no-op
    /// default -- the set of components the event engine must commit
    /// every stepped cycle.
    [[nodiscard]] bool latches() const { return latches_; }

    /// Earliest future cycle at which this component could need tick()
    /// again, assuming no external input arrives first (inputs re-arm it
    /// through wake()). Called by the simulator right after tick(), so
    /// implementations may rely on this-cycle state being current.
    /// Returning k_cycle_never declares full quiescence. The default
    /// keeps unmodified components on the per-cycle cadence, which is
    /// always correct.
    [[nodiscard]] virtual cycle_t next_event(cycle_t now) const {
        return now + 1;
    }

    /// Re-arms the component: its cached horizon is discarded and tick()
    /// runs at the next simulator step. Producers (queues, supervisors)
    /// call this when they hand the component new work. Safe to call at
    /// any time, including on an already-armed component.
    void wake() {
        *wake_word_ |= wake_mask_;
        *wake_cell_ = 0;
        wake_hook_.fire();
    }

    /// Chains wakes upward: whenever this component is woken, `hook`
    /// fires too. Used by fabrics that drive sub-components internally
    /// (a woken Scale Element must also wake the interconnect that ticks
    /// it).
    void set_wake_hook(sim::wake_hook hook) { wake_hook_ = hook; }

    /// Binds wake() into an engine-owned sim::wake_schedule: wake() sets
    /// `mask` in the due bitset word `word` and zeroes the schedule's
    /// shared pending cell `cell`. Components default to private storage.
    void bind_wake_cell(cycle_t* cell, std::uint64_t* word,
                        std::uint64_t mask) {
        wake_cell_ = cell;
        wake_word_ = word;
        wake_mask_ = mask;
    }

    [[nodiscard]] const std::string& name() const { return name_; }

private:
    std::string name_;
    bool latches_ = false;
    cycle_t own_cell_ = 0;
    std::uint64_t own_word_ = 0;
    cycle_t* wake_cell_ = &own_cell_;
    std::uint64_t* wake_word_ = &own_word_;
    std::uint64_t wake_mask_ = 1;
    sim::wake_hook wake_hook_{};
};

} // namespace bluescale
