#include "core/supply_watchdog.hpp"

#include <cassert>
#include <cmath>

#include "analysis/periodic_resource.hpp"
#include "core/bluescale_ic.hpp"

namespace bluescale::core {

const char* watchdog_alarm_name(watchdog_alarm a) {
    switch (a) {
    case watchdog_alarm::supply_shortfall: return "supply_shortfall";
    case watchdog_alarm::hard_deadline_miss: return "hard_deadline_miss";
    case watchdog_alarm::overload_shed: return "overload_shed";
    case watchdog_alarm::overload_restore: return "overload_restore";
    }
    return "?";
}

supply_watchdog::supply_watchdog(bluescale_ic& fabric,
                                 const analysis::tree_selection* selection,
                                 watchdog_config cfg)
    : component("supply_watchdog"), fabric_(fabric), selection_(selection),
      cfg_(cfg), next_check_(cfg.check_period),
      ports_(static_cast<std::size_t>(fabric.total_ses()) * k_se_ports),
      restore_after_(cfg.restore_windows),
      own_(std::make_unique<obs::registry>()) {
    bind_observability(*own_, obs::tracer{});
}

void supply_watchdog::bind_observability(obs::registry& reg,
                                         obs::tracer tracer) {
    windows_checked_ = reg.make_counter("watchdog/windows_checked");
    violating_windows_ = reg.make_counter("watchdog/violating_windows");
    supply_shortfall_alarms_ =
        reg.make_counter("watchdog/supply_shortfall_alarms");
    deadline_alarms_ = reg.make_counter("watchdog/deadline_alarms");
    shed_events_ = reg.make_counter("watchdog/shed_events");
    restore_events_ = reg.make_counter("watchdog/restore_events");
    shed_client_cycles_ = reg.make_counter("watchdog/shed_client_cycles");
    hard_misses_ = reg.make_counter("watchdog/hard_misses");
    best_effort_misses_ = reg.make_counter("watchdog/best_effort_misses");
    trace_ = tracer;
}

void supply_watchdog::track_client(std::uint32_t client, client_class cls,
                                   missed_fn missed, shed_fn shed) {
    tracked_client t;
    t.id = client;
    t.cls = cls;
    t.missed = std::move(missed);
    t.shed = std::move(shed);
    clients_.push_back(std::move(t));
    // Pre-size the shed flags here, at assembly time, so set_shed() -- on
    // the health monitor's tick path -- never has to grow storage.
    if (client >= shed_clients_.size()) shed_clients_.resize(client + 1);
}

void supply_watchdog::raise(watchdog_alarm a, cycle_t now) {
    trace_.emit(obs::trace_event_kind::watchdog_alarm,
                static_cast<std::uint64_t>(a), now);
    if (on_alarm_) on_alarm_(a, now);
}

std::uint64_t supply_watchdog::supply_violations(cycle_t window_cycles) {
    if (selection_ == nullptr || selection_->levels.empty() ||
        window_cycles == 0) {
        return 0;
    }
    const std::uint32_t unit_cycles =
        fabric_.se_at(0, 0).params().unit_cycles;
    const std::uint64_t window_units = window_cycles / unit_cycles;

    std::uint64_t violations = 0;
    const auto& shape = fabric_.shape();
    std::size_t idx = 0;
    for (std::uint32_t l = 0; l <= shape.leaf_level; ++l) {
        for (std::uint32_t y = 0; y < shape.ses_at_level(l); ++y) {
            const scale_element& se = fabric_.se_at(l, y);
            for (std::uint32_t p = 0; p < k_se_ports; ++p, ++idx) {
                port_state& st = ports_[idx];
                const std::uint64_t fwd = se.port_forwarded(p);
                const std::uint64_t bkl = se.port_backlogged_cycles(p);
                const std::uint64_t d_fwd = fwd - st.last_forwarded;
                const std::uint64_t d_bkl = bkl - st.last_backlogged;
                st.last_forwarded = fwd;
                st.last_backlogged = bkl;

                const auto& iface = selection_->levels[l][y].ports[p];
                if (!iface || iface->budget == 0) continue;
                // A shed best-effort client's leaf port runs with its
                // budget donated: its (suspended) contract is exempt.
                if (l == shape.leaf_level && shedding_now_) {
                    const std::uint32_t c =
                        analysis::quadtree_shape::child_order(y, p);
                    if (c < shed_clients_.size() && shed_clients_[c]) {
                        continue;
                    }
                }
                // sbf guarantees service to PENDING work only: the window
                // counts when the port was backlogged throughout. Modeled
                // maintenance is budgeted out of the guarantee, so only
                // interference beyond the maintenance model can alarm.
                if (d_bkl < window_cycles) continue;
                const auto guarantee = static_cast<std::uint64_t>(
                    std::floor(k_conformance_margin *
                               static_cast<double>(analysis::maintenance_sbf(
                                   window_units, *iface,
                                   cfg_.maintenance))));
                if (d_fwd < guarantee) ++violations;
            }
        }
    }
    return violations;
}

void supply_watchdog::set_shed(bool on, cycle_t now) {
    if (on == shedding_now_) return;
    shedding_now_ = on;
    if (on) {
        shed_since_ = now;
        shed_events_.inc();
        trace_.emit(obs::trace_event_kind::shed_on);
        raise(watchdog_alarm::overload_shed, now);
    } else {
        restore_events_.inc();
        restore_after_ *= cfg_.restore_backoff;
        trace_.emit(obs::trace_event_kind::shed_off);
        raise(watchdog_alarm::overload_restore, now);
    }
    for (auto& c : clients_) {
        if (c.cls != client_class::best_effort) continue;
        assert(c.id < shed_clients_.size()); // sized in track_client()
        shed_clients_[c.id] = on;
        if (c.shed) c.shed(on);
        if (donate_) donate_(c.id, on);
    }
}

void supply_watchdog::check(cycle_t now) {
    const cycle_t window = now - last_check_;
    last_check_ = now;
    windows_checked_.inc();
    if (shedding_now_) {
        for (const auto& c : clients_) {
            if (c.cls == client_class::best_effort) {
                shed_client_cycles_.inc(window);
            }
        }
    }

    const std::uint64_t shortfalls = supply_violations(window);
    supply_shortfall_alarms_.inc(shortfalls);
    if (shortfalls > 0) raise(watchdog_alarm::supply_shortfall, now);

    std::uint64_t miss_alarms = 0;
    for (auto& c : clients_) {
        if (!c.missed) continue;
        const std::uint64_t m = c.missed();
        const std::uint64_t delta = m - c.last_missed;
        c.last_missed = m;
        c.total_missed = m;
        if (c.cls == client_class::hard) {
            hard_misses_.inc(delta);
            if (delta > k_hard_miss_allowance) {
                ++miss_alarms;
                raise(watchdog_alarm::hard_deadline_miss, now);
            }
        } else {
            best_effort_misses_.inc(delta);
        }
    }
    deadline_alarms_.inc(miss_alarms);

    const bool violating = shortfalls > 0 || miss_alarms > 0;
    if (violating) {
        violating_windows_.inc();
        ++violating_streak_;
        clean_streak_ = 0;
    } else {
        violating_streak_ = 0;
        ++clean_streak_;
    }

    if (!shedding_now_ && violating_streak_ >= cfg_.shed_enter_windows) {
        set_shed(true, now);
        violating_streak_ = 0;
    } else if (shedding_now_ && clean_streak_ >= restore_after_) {
        set_shed(false, now);
        clean_streak_ = 0;
    }
}

void supply_watchdog::tick(cycle_t now) {
    if (now < next_check_) return;
    check(now);
    next_check_ = now + cfg_.check_period;
}

void supply_watchdog::reset() {
    for (auto& p : ports_) p = {};
    for (auto& c : clients_) {
        c.last_missed = 0;
        c.total_missed = 0;
    }
    shed_clients_.assign(shed_clients_.size(), false);
    violating_streak_ = 0;
    clean_streak_ = 0;
    restore_after_ = cfg_.restore_windows;
    shedding_now_ = false;
    shed_since_ = 0;
    last_check_ = 0;
    next_check_ = cfg_.check_period;
    wake(); // drop any cached horizon from the previous trial
    windows_checked_.reset();
    violating_windows_.reset();
    supply_shortfall_alarms_.reset();
    deadline_alarms_.reset();
    shed_events_.reset();
    restore_events_.reset();
    shed_client_cycles_.reset();
    hard_misses_.reset();
    best_effort_misses_.reset();
}

} // namespace bluescale::core
