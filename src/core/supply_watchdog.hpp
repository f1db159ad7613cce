// Supply-conformance watchdog with overload shedding (robustness axis).
//
// The offline supply-conformance property (a backlogged port configured
// with (Pi, Theta) receives at least sbf(t) service in any window of t
// units -- tests/integration/test_supply_conformance.cpp) is enforced
// ONLINE here: every check window the watchdog differences each SE
// port's forwarded-transaction and backlogged-cycle counters and raises a
// typed supply_shortfall alarm when a fully backlogged port received less
// than its sbf guarantee. It also tracks deadline misses per admitted
// hard real-time client (hard_deadline_miss alarms).
//
// Sustained violation triggers OVERLOAD SHEDDING: every registered
// best-effort client is throttled -- its issue stream deferred (see
// workload::traffic_generator::set_shed) and its leaf server budget
// donated back to the fabric (reconfig_manager::donate_client_budget) --
// while admitted hard real-time clients keep their contracts. Restoration
// is hysteresis-controlled: a run of consecutive clean windows is
// required, and the run length backs off multiplicatively after every
// restore so a persistent overload cannot make the system oscillate
// between shed and restored at the check frequency.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "analysis/maintenance.hpp"
#include "analysis/tree_analysis.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/component.hpp"

namespace bluescale::core {

class bluescale_ic;

/// A backlogged port conforms while it receives at least this fraction of
/// sbf(window) -- headroom for window-phase effects.
inline constexpr double k_conformance_margin = 0.9;
/// Hard-client deadline misses tolerated per window.
inline constexpr std::uint64_t k_hard_miss_allowance = 0;

enum class watchdog_alarm : std::uint8_t {
    /// A fully backlogged SE port received less than
    /// k_conformance_margin * sbf(window).
    supply_shortfall,
    /// A hard real-time client missed more than k_hard_miss_allowance
    /// deadlines inside one window.
    hard_deadline_miss,
    /// Sustained violation: best-effort clients were shed.
    overload_shed,
    /// Hysteresis satisfied: best-effort clients were restored.
    overload_restore,
};

[[nodiscard]] const char* watchdog_alarm_name(watchdog_alarm a);

/// QoS class of a tracked client.
enum class client_class : std::uint8_t { hard, best_effort };

struct watchdog_config {
    /// Cycles per sliding conformance window (one check per window).
    cycle_t check_period = 1024;
    /// Consecutive violating windows before best-effort clients are shed.
    std::uint32_t shed_enter_windows = 2;
    /// Consecutive clean windows before shed clients are restored.
    std::uint32_t restore_windows = 4;
    /// restore_windows multiplier applied after every restore (hysteresis
    /// backoff: a recurring overload sheds again quickly but restores ever
    /// more cautiously, bounding shed/restore transitions to O(log T)).
    std::uint32_t restore_backoff = 2;
    /// MODELED device maintenance (mem::to_maintenance_model): the
    /// conformance guarantee is the maintenance-corrected
    /// sbf(window - stolen(window)), so budgeted refresh/scrub/mitigation
    /// interference never alarms while *unmodeled* interference (e.g. a
    /// maintenance storm) still does -- and still triggers shedding. In
    /// analysis time units, like the selection's interfaces.
    analysis::maintenance_model maintenance = {};
};

/// Counter snapshot of a trial's supervision outcome (values read out of
/// obs handles; a result type, not mutable storage).
struct watchdog_report {
    std::uint64_t windows_checked = 0;
    std::uint64_t violating_windows = 0;
    std::uint64_t supply_shortfall_alarms = 0; ///< port-windows under sbf
    std::uint64_t deadline_alarms = 0;         ///< hard client-windows over tolerance
    std::uint64_t shed_events = 0;             ///< shed episodes entered
    std::uint64_t restore_events = 0;          ///< shed episodes exited
    /// Client-cycles best-effort clients spent shed (summed).
    std::uint64_t shed_client_cycles = 0;
    /// Deadline misses observed per class while supervised.
    std::uint64_t hard_misses = 0;
    std::uint64_t best_effort_misses = 0;
};

class supply_watchdog : public component {
public:
    /// Deadline-miss probe for one client (usually client_stats::missed).
    using missed_fn = std::function<std::uint64_t()>;
    /// Throttle signal into the client's workload model.
    using shed_fn = std::function<void(bool)>;
    /// Budget donation hook (reconfig_manager::donate/restore).
    using donate_fn = std::function<void(std::uint32_t client, bool shed)>;
    using alarm_fn = std::function<void(watchdog_alarm, cycle_t)>;

    /// `selection` must outlive the watchdog and always point at the
    /// CURRENT committed selection (the reconfig manager updates it in
    /// place on commit).
    supply_watchdog(bluescale_ic& fabric,
                    const analysis::tree_selection* selection,
                    watchdog_config cfg = {});

    /// Registers a client for deadline tracking and (best-effort only)
    /// overload shedding. Call before the first tick.
    void track_client(std::uint32_t client, client_class cls,
                      missed_fn missed, shed_fn shed = nullptr);

    void set_donate_hook(donate_fn f) { donate_ = std::move(f); }
    void set_alarm_hook(alarm_fn f) { on_alarm_ = std::move(f); }

    void tick(cycle_t now) override;

    /// Event-engine horizon: a pure cadence -- nothing happens between
    /// checks, so the next one is the only wakeup needed.
    [[nodiscard]] cycle_t next_event(cycle_t) const override {
        return next_check_;
    }

    /// Re-homes the supervision counters into `reg` under "watchdog/..."
    /// and attaches the trace stream; call before the trial starts.
    void bind_observability(obs::registry& reg, obs::tracer tracer);

    /// Clears window tracking and the report (between trials).
    void reset();

    [[nodiscard]] const watchdog_config& config() const { return cfg_; }
    [[nodiscard]] watchdog_report report() const {
        return {windows_checked_.value(),      violating_windows_.value(),
                supply_shortfall_alarms_.value(), deadline_alarms_.value(),
                shed_events_.value(),          restore_events_.value(),
                shed_client_cycles_.value(),   hard_misses_.value(),
                best_effort_misses_.value()};
    }
    [[nodiscard]] bool shedding_now() const { return shedding_now_; }

private:
    struct port_state {
        std::uint64_t last_forwarded = 0;
        std::uint64_t last_backlogged = 0;
    };
    struct tracked_client {
        std::uint32_t id = 0;
        client_class cls = client_class::hard;
        missed_fn missed;
        shed_fn shed;
        std::uint64_t last_missed = 0;
        std::uint64_t total_missed = 0;
    };

    void check(cycle_t now);
    [[nodiscard]] std::uint64_t supply_violations(cycle_t window_cycles);
    void raise(watchdog_alarm a, cycle_t now);
    void set_shed(bool on, cycle_t now);

    bluescale_ic& fabric_;
    const analysis::tree_selection* selection_;
    watchdog_config cfg_;
    cycle_t next_check_;
    cycle_t last_check_ = 0;
    /// Per (SE linear index, port) window counters.
    std::vector<port_state> ports_;
    std::vector<tracked_client> clients_;
    std::uint32_t violating_streak_ = 0;
    std::uint32_t clean_streak_ = 0;
    /// Current restore requirement (grows by restore_backoff per restore).
    std::uint32_t restore_after_;
    bool shedding_now_ = false;
    cycle_t shed_since_ = 0;
    /// Indexed by client id: currently shed (supply checks exempt the
    /// donated leaf ports).
    std::vector<bool> shed_clients_;
    /// Fallback registry for unbound instances (bind_observability
    /// re-homes the handles).
    std::unique_ptr<obs::registry> own_;
    obs::counter windows_checked_;
    obs::counter violating_windows_;
    obs::counter supply_shortfall_alarms_;
    obs::counter deadline_alarms_;
    obs::counter shed_events_;
    obs::counter restore_events_;
    obs::counter shed_client_cycles_;
    obs::counter hard_misses_;
    obs::counter best_effort_misses_;
    obs::tracer trace_;
    donate_fn donate_;
    alarm_fn on_alarm_;
};

} // namespace bluescale::core
