#include "harness/testbench.hpp"

#include "core/bluescale_ic.hpp"

namespace bluescale::harness {

testbench::testbench(ic_kind kind, const testbench_options& opts)
    : kind_(kind),
      unit_cycles_(opts.memctrl.initiation_interval),
      tracing_(opts.trace),
      mem_(opts.memctrl),
      sinks_(opts.n_clients) {
    ic_build_options build;
    build.n_clients = opts.n_clients;
    build.unit_cycles = unit_cycles_;
    build.client_utilizations = opts.client_utilizations;
    build.bluetree_alpha = opts.bluetree_alpha;
    if (kind == ic_kind::bluescale && opts.rt_sets != nullptr) {
        selection_ =
            analysis::select_tree_interfaces(*opts.rt_sets, opts.selection);
        build.selection = &selection_;
    }

    ic_ = make_interconnect(kind, build);
    if (kind == ic_kind::bluescale && opts.bluescale_se.has_value()) {
        // SE ablations rebuild the fabric with the override.
        core::se_params se = *opts.bluescale_se;
        se.unit_cycles = unit_cycles_;
        auto bs = std::make_unique<core::bluescale_ic>(opts.n_clients, se);
        if (selection_.feasible) bs->configure(selection_);
        ic_ = std::move(bs);
    }

    ic_->attach_memory(mem_);
    ic_->set_response_handler([this](mem_request&& r) {
        sinks_[r.client](std::move(r));
    });

    if (opts.faults != nullptr) {
        ic_->inject_campaign(*opts.faults);
        mem_.inject_campaign(*opts.faults);
    }
    mem_.bind_observability(reg_, tracer("mem"));
    if (tracing_) sim_.bind_trace(trace_);
    if (auto* bs = dynamic_cast<core::bluescale_ic*>(ic_.get())) {
        bs->bind_observability(reg_, tracing_ ? &trace_ : nullptr);
        // Under the lockstep fallback the fabric's internal SE walk is
        // forced to tick everything too, so BLUESCALE_LOCKSTEP is a true
        // end-to-end tick-every-cycle reference.
        if (sim_.mode() == simulator::engine::lockstep) {
            bs->set_selective_ticking(false);
        }
        // Only the BlueScale fabric has elements to supervise; baselines
        // run the same campaign without graceful degradation.
        if (opts.health.has_value()) {
            monitor_ =
                std::make_unique<core::health_monitor>(*bs, *opts.health);
            monitor_->bind_observability(
                reg_, tracer("health"));
        }
        if (opts.reconfig.has_value() && opts.rt_sets != nullptr) {
            reconfig_ = std::make_unique<core::reconfig_manager>(
                *bs, selection_, *opts.rt_sets, *opts.reconfig);
            reconfig_->bind_observability(
                reg_, tracer("reconfig"));
        }
        if (opts.watchdog.has_value()) {
            // The watchdog polices whatever selection is live: the
            // manager's committed copy when runtime reconfiguration is
            // on (updated in place at commits), else the static one.
            const analysis::tree_selection* live =
                reconfig_ ? &reconfig_->committed() : &selection_;
            watchdog_ = std::make_unique<core::supply_watchdog>(
                *bs, live, *opts.watchdog);
            watchdog_->bind_observability(
                reg_, tracer("watchdog"));
            if (reconfig_) {
                watchdog_->set_donate_hook(
                    [this](std::uint32_t client, bool shed) {
                        if (shed) {
                            reconfig_->donate_client_budget(client);
                        } else {
                            reconfig_->restore_client_budget(client);
                        }
                    });
            }
        }
    }
}

obs::tracer testbench::tracer(const std::string& name) {
    return tracing_ ? trace_.register_component(name) : obs::tracer{};
}

void testbench::add_client(client_id_t id, component& c,
                           std::function<void(mem_request&&)> sink) {
    sinks_.at(id) = std::move(sink);
    sim_.add(c);
}

void testbench::arm() {
    if (armed_) return;
    sim_.add(*ic_);
    sim_.add(mem_);
    // The monitor ticks last so each check window sees the cycle's final
    // stall counters; the manager after it so admission-time hazard
    // checks observe the freshest degraded/stall state; the watchdog
    // last of all so its windows close on the cycle's final counters.
    if (monitor_) sim_.add(*monitor_);
    if (reconfig_) sim_.add(*reconfig_);
    if (watchdog_) sim_.add(*watchdog_);
    armed_ = true;
}

void testbench::run(cycle_t cycles) {
    arm();
    sim_.run(cycles);
}

bool testbench::run_until(const std::function<bool()>& done,
                          cycle_t max_cycles) {
    arm();
    return sim_.run_until(done, max_cycles);
}

} // namespace bluescale::harness
