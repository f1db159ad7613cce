#include "sim/simulator.hpp"

#include <cstdlib>
#include <optional>

#include "obs/profile.hpp"

namespace bluescale {

namespace {

/// Test override for the process-wide default engine. Written only from
/// set_default_engine()/clear_default_engine() between runs; reads during
/// parallel trial sweeps see a stable value.
std::optional<simulator::engine> g_engine_override;

} // namespace

simulator::engine simulator::default_engine() {
    if (g_engine_override.has_value()) return *g_engine_override;
    static const engine from_env = [] {
        // Engine selection, not simulation input: both engines produce
        // bit-identical simulations by contract (the determinism suite
        // diffs their exports), so this env read cannot leak
        // nondeterminism into results.
        // detlint:allow(nondet-source): engine toggle, outputs invariant
        const char* v = std::getenv("BLUESCALE_LOCKSTEP");
        const bool lockstep = v != nullptr && v[0] != '\0' &&
                              !(v[0] == '0' && v[1] == '\0');
        return lockstep ? engine::lockstep : engine::event;
    }();
    return from_env;
}

void simulator::set_default_engine(engine e) { g_engine_override = e; }

void simulator::clear_default_engine() { g_engine_override.reset(); }

void simulator::enable_profiling(obs::registry& reg) {
    profiling_ = true;
    prof_reg_ = &reg;
    prof_cycles_ = reg.make_counter("profile/sim/cycles",
                                    obs::k_metric_profile);
    prof_wall_ns_ = reg.make_counter("profile/sim/wall_ns",
                                     obs::k_metric_profile);
    prof_tick_ns_.clear();
    sync_profile_handles();
}

void simulator::sync_profile_handles() {
    // Components may be added after enable_profiling (testbench::arm adds
    // the fabric last); late arrivals get their counters on first step.
    while (prof_tick_ns_.size() < components_.size()) {
        prof_tick_ns_.push_back(prof_reg_->make_counter(
            "profile/" + components_[prof_tick_ns_.size()]->name() +
                "/tick_ns",
            obs::k_metric_profile));
    }
}

void simulator::rebind_wake_schedule() {
    schedule_.grow_to(components_.size());
    committers_.clear();
    // One reservation per assembly change: the rebind runs at add() time
    // (before stepping resumes), so the commit phase never grows storage
    // while the simulation is running.
    committers_.reserve(components_.size());
    for (std::size_t i = 0; i < components_.size(); ++i) {
        schedule_.bind(i, *components_[i]);
        if (components_[i]->latches()) committers_.push_back(components_[i]);
    }
}

void simulator::step() {
    if (schedule_.size() != components_.size()) rebind_wake_schedule();
    if (profiling_) {
        step_profiled();
        return;
    }
    if (trace_ != nullptr) trace_->set_now(now_);
    if (engine_ == engine::lockstep) {
        for (component* c : components_) c->tick(now_);
    } else {
        schedule_.sweep(now_, [this](std::size_t i) {
            component* c = components_[i];
            c->tick(now_);
            return c->next_event(now_);
        });
    }
    commit_phase();
    ++now_;
}

void simulator::step_profiled() {
    if (trace_ != nullptr) trace_->set_now(now_);
    sync_profile_handles();
    const obs::stopwatch step_watch;
    if (engine_ == engine::lockstep) {
        // Lockstep ticks everything next cycle anyway -- paying for
        // next_event() there would only slow the fallback.
        for (std::size_t i = 0; i < components_.size(); ++i) {
            const obs::stopwatch tick_watch;
            components_[i]->tick(now_);
            prof_tick_ns_[i].inc(tick_watch.ns());
        }
    } else {
        schedule_.sweep(now_, [this](std::size_t i) {
            component* c = components_[i];
            const obs::stopwatch tick_watch;
            c->tick(now_);
            prof_tick_ns_[i].inc(tick_watch.ns());
            return c->next_event(now_);
        });
    }
    commit_phase();
    prof_wall_ns_.inc(step_watch.ns());
    prof_cycles_.inc();
    ++now_;
}

void simulator::commit_phase() {
    if (engine_ == engine::lockstep) {
        for (component* c : components_) c->commit();
        return;
    }
    // Every latching component commits on every STEPPED cycle, even ones
    // that slept through the tick phase: a producer may push into a
    // sleeping consumer's queue without waking it (transition-only wakes
    // skip pushes onto existing work), and those staged values must latch
    // on this clock edge exactly as in lockstep -- a consumer that wakes
    // later must see everything pushed before its wake cycle as visible.
    // Cycles the engine skips entirely stage nothing (no tick, no push),
    // so eliding their commits is behaviour-preserving; commit() on a
    // latching component with nothing staged is a no-op by the two-phase
    // contract, and non-latching components (latches() == false) have no
    // edge to run at all.
    for (component* c : committers_) c->commit();
}

void simulator::run(cycle_t cycles) {
    const cycle_t end = now_ + cycles;
    if (engine_ == engine::lockstep) {
        while (now_ < end) step();
        return;
    }
    while (now_ < end) {
        step();
        if (now_ >= end) break;
        // Idle skip: when no component is due before `due`, the cycles in
        // between are provably empty -- jump the clock over them.
        const cycle_t due = std::min(end, std::max(now_, next_due()));
        if (due > now_) skip_to(due);
    }
}

} // namespace bluescale
