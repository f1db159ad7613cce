// Per-trial system assembly shared by every experiment driver.
//
// Each trial of each experiment builds the same stack: an optional
// interface selection, the interconnect under test, the memory
// controller behind it, and a simulator sequencing the lot. The
// testbench owns that wiring once; experiments only construct their
// clients (traffic generators, processor models, accelerators -- these
// differ per figure) and register them. A testbench instance is
// single-trial and single-threaded: parallel sweeps create one per
// trial (see sim::trial_runner).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/tree_analysis.hpp"
#include "core/health_monitor.hpp"
#include "core/reconfig_manager.hpp"
#include "core/scale_element.hpp"
#include "core/supply_watchdog.hpp"
#include "harness/factory.hpp"
#include "sim/fault.hpp"
#include "mem/memory_controller.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace bluescale::harness {

/// Options for assembling one trial's system under test.
struct testbench_options {
    std::uint32_t n_clients = 16;
    memctrl_config memctrl = {};
    /// BlueTree/BlueTree-Smooth blocking factor.
    std::uint32_t bluetree_alpha = 2;
    /// Optional SE parameter override for BlueScale (ablations). The SE
    /// unit_cycles is forced to the memory controller's initiation
    /// interval.
    std::optional<core::se_params> bluescale_se;
    /// Per-client utilizations for reservation-based designs
    /// (GSMTree-FBSP weights, AXI-IC^RT regulation).
    std::vector<double> client_utilizations;
    /// Memory-demand view per client. When non-null and the kind is
    /// BlueScale, drives the whole-tree interface selection; other kinds
    /// ignore it.
    const std::vector<analysis::task_set>* rt_sets = nullptr;
    /// Selection/admission knobs for the whole-tree interface selection.
    /// Set `selection.sched.maintenance` (mem::to_maintenance_model) to
    /// provision (Pi, Theta) that stay feasible under DRAM maintenance.
    /// Attach a selection.cache to share memoized per-port selections
    /// between the initial whole-tree selection and the reconfig
    /// manager's incremental reselections (pass the same context in
    /// `reconfig`).
    analysis::analysis_context selection = {};
    /// Fault campaign injected into the interconnect and the memory
    /// controller before the trial starts (nullptr = healthy run). The
    /// campaign object must outlive the testbench.
    const sim::fault_campaign* faults = nullptr;
    /// When set and the kind is BlueScale, a core::health_monitor
    /// supervises the fabric and drives degraded-mode transitions.
    /// Ignored (no SEs to supervise) for the baseline interconnects.
    std::optional<core::health_config> health;
    /// When set and the kind is BlueScale, a core::reconfig_manager
    /// accepts runtime admission requests against the resolved selection
    /// (requires rt_sets). Ignored for the baseline interconnects.
    std::optional<core::reconfig_config> reconfig;
    /// When set and the kind is BlueScale, a core::supply_watchdog
    /// polices per-SE supply conformance online and (when configured)
    /// sheds best-effort clients under sustained overload. Ignored for
    /// the baseline interconnects.
    std::optional<core::watchdog_config> watchdog;
    /// Record the event trace: bind every component's tracer to the
    /// testbench's sink. Off (the default), tracers stay unbound -- each
    /// emit() is one branch and the sink stays empty -- so only a trial
    /// whose trace is exported pays for recording it.
    bool trace = false;
};

class testbench {
public:
    testbench(ic_kind kind, const testbench_options& opts);

    testbench(const testbench&) = delete;
    testbench& operator=(const testbench&) = delete;

    [[nodiscard]] ic_kind kind() const { return kind_; }
    [[nodiscard]] interconnect& ic() { return *ic_; }
    [[nodiscard]] memory_controller& memctrl() { return mem_; }
    [[nodiscard]] simulator& sim() { return sim_; }
    [[nodiscard]] cycle_t now() const { return sim_.now(); }
    /// Cycles per transaction time unit (the controller's initiation
    /// interval) -- the granularity every client must issue at.
    [[nodiscard]] std::uint32_t unit_cycles() const { return unit_cycles_; }

    /// The trial's unified metrics registry: the fabric, the memory
    /// controller and every supervisor are bound into it at construction;
    /// experiments bind their clients too, then snapshot after the run.
    [[nodiscard]] obs::registry& metrics() { return reg_; }
    /// The trial's event-trace sink (no-op stub when the build has
    /// BLUESCALE_TRACE=OFF). The simulator drives its clock. Empty unless
    /// testbench_options::trace was set.
    [[nodiscard]] obs::trace_sink& trace() { return trace_; }
    /// An emit handle on the sink for component `name`, or an unbound
    /// one when testbench_options::trace is off; for components the
    /// experiment adds itself.
    [[nodiscard]] obs::tracer tracer(const std::string& name);

    /// The resolved interface selection (BlueScale only; infeasible /
    /// empty otherwise).
    [[nodiscard]] const analysis::tree_selection& selection() const {
        return selection_;
    }
    [[nodiscard]] bool selection_feasible() const {
        return selection_.feasible;
    }

    /// The fabric's health monitor, or nullptr when none was requested
    /// (or the kind has no SE fabric to supervise).
    [[nodiscard]] core::health_monitor* health() { return monitor_.get(); }
    [[nodiscard]] const core::health_monitor* health() const {
        return monitor_.get();
    }

    /// The runtime admission/reconfiguration manager, or nullptr when
    /// none was requested (or the kind has no BlueScale fabric).
    [[nodiscard]] core::reconfig_manager* reconfig() {
        return reconfig_.get();
    }
    [[nodiscard]] const core::reconfig_manager* reconfig() const {
        return reconfig_.get();
    }

    /// The online supply-conformance watchdog, or nullptr when none was
    /// requested (or the kind has no BlueScale fabric).
    [[nodiscard]] core::supply_watchdog* watchdog() {
        return watchdog_.get();
    }
    [[nodiscard]] const core::supply_watchdog* watchdog() const {
        return watchdog_.get();
    }

    /// Registers a client component and the sink that receives the
    /// interconnect's responses addressed to `id`. Clients tick in
    /// registration order, before the interconnect and the memory
    /// controller.
    void add_client(client_id_t id, component& c,
                    std::function<void(mem_request&&)> sink);

    /// Runs the assembled system for `cycles` more cycles. The first call
    /// seals client registration.
    void run(cycle_t cycles);

    /// run() + predicate variant; see simulator::run_until.
    bool run_until(const std::function<bool()>& done, cycle_t max_cycles);

private:
    void arm();

    ic_kind kind_;
    std::uint32_t unit_cycles_;
    /// Declared before the components so handles bound into it at
    /// construction outlive every consumer.
    obs::registry reg_;
    obs::trace_sink trace_;
    bool tracing_;
    analysis::tree_selection selection_;
    std::unique_ptr<interconnect> ic_;
    std::unique_ptr<core::health_monitor> monitor_;
    std::unique_ptr<core::reconfig_manager> reconfig_;
    std::unique_ptr<core::supply_watchdog> watchdog_;
    memory_controller mem_;
    simulator sim_;
    std::vector<std::function<void(mem_request&&)>> sinks_;
    bool armed_ = false;
};

} // namespace bluescale::harness
