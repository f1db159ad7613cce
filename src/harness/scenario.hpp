// One declarative trial scenario and the one sweep that runs it.
//
// Every simulation experiment here follows the paper's Fig. 6 method:
// each trial draws the client workloads from its trial seed, every
// design sees the identical draw, and results are aggregated over
// trials. A `scenario` states such an experiment as data -- the workload
// draw plus optional stages that run exactly when they are present (a
// fault campaign, a request stream, a health monitor, a supply watchdog,
// a reconfiguration manager, an analysis service) -- and run_sweep()
// executes it on harness::testbench, one trial per sim::trial_runner
// slot.
//
// Each trial records each aggregate once, by name, into its own
// obs::registry (never the testbench's, so --metrics exports stay what
// the fabric and clients recorded). The sweep merges those snapshots in
// trial order -- counters sum, samples append (obs::snapshot::merge) --
// so `totals` is bit-identical for any --threads setting, and derives
// ratios only after the merge. The totals vocabulary:
//
//   per-trial series (one sample per trial):
//     miss_ratio, hard_miss_ratio, best_effort_miss_ratio,
//     p99_latency_cycles, worst_latency_cycles (client request latency),
//     blocking_us, worst_blocking_us (mean / worst request blocking at
//     the design's system clock)
//   per-event series:
//     time_to_recover_cycles (one per trial that recovered an SE),
//     reconfig_latency_cycles (modeled parameter-path latency of each
//     staged manager request), request_latency_cycles (service submit to
//     terminal outcome), eval_cycles (service worker busy time)
//   counters:
//     feasible_trials; clients: hard_misses, best_effort_misses,
//     retries, timeouts, retry_exhausted, stale_responses,
//     failed_responses, shed_deferrals, live_reconfigurations;
//     faults: injected_events, stall_windows, se_stall_cycles,
//     link_drops, ecc_retries, uncorrected_errors, storm_cycles;
//     DRAM maintenance: refreshes, scrubs, hammer_mitigations,
//     maintenance_stolen_cycles, maintenance_storm_cycles;
//     health: degrade_events, recovery_events, degraded_se_cycles;
//     watchdog: windows_checked, violating_windows,
//     supply_shortfall_alarms, deadline_alarms, shed_events,
//     restore_events, shed_client_cycles;
//     request stream (from whichever front end took it): submitted,
//     committed, rolled_back, rejected_infeasible,
//     rejected_overutilized, rejected_path_hazard; manager only:
//     admitted, transition_misses, stale_reevals; no admission control:
//     applied_unchecked; service only: accepted, shed, expired,
//     rejected, request_retries, requeues, worker_crashes,
//     worker_stall_cycles, cache_hits, cache_misses,
//     cache_invalidations, drained_trials, conserved_trials
//   derived after the merge (reals):
//     admission_ratio (admitted / submitted), cache_hit_ratio
//
// Every series is registered in every trial, so an empty one still reads
// as a zero mean; a counter a scenario never records reads as 0.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "core/health_monitor.hpp"
#include "core/reconfig_manager.hpp"
#include "core/scale_element.hpp"
#include "core/supply_watchdog.hpp"
#include "harness/factory.hpp"
#include "mem/memory_controller.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/fault.hpp"
#include "sim/reconfig_schedule.hpp"
#include "stats/summary.hpp"
#include "svc/analysis_service.hpp"
#include "workload/taskset_gen.hpp"

namespace bluescale::harness {

/// The per-trial task-set draw, a pure function of the trial seed.
struct workload_draw {
    std::uint32_t n_clients = 16;
    /// Interconnect utilization range the draw spreads over the clients.
    double util_lo = 0.70;
    double util_hi = 0.90;
    /// Paper setup: intensive traffic with tight implicit deadlines.
    workload::taskset_params taskset = {
        .n_tasks = 4,
        .total_utilization = 0.05, // overridden per trial by util_lo/hi
        .min_period_units = 40,
        .max_period_units = 600,
        .write_fraction = 0.3,
    };
    /// The LAST this-many client ids are best-effort (sheddable by the
    /// watchdog, counted apart in the per-class misses); the rest are
    /// hard real-time.
    std::uint32_t best_effort_clients = 0;
    /// 0 pools every client into one [util_lo, util_hi] draw; > 0 gives
    /// the hard clients that draw to themselves and loads the best-effort
    /// clients with exactly this much bulk traffic (light hard control
    /// traffic beside heavy sheddable DMA).
    double best_effort_util = 0.0;
};

/// How a trial seeds traffic generator `c`.
enum class client_seeding : std::uint8_t {
    substream, ///< substream(trial_seed, c)
    /// trial_seed ^ (0x5851f42d4c957f2d + c): the Fig. 6 family's rule,
    /// kept so its tables reproduce across revisions.
    fig6_xor,
};

/// An analysis service in front of the reconfiguration manager. Runs
/// only where the manager does (`scenario::reconfig` on BlueScale); the
/// request stream then goes to the service instead of the manager.
struct service_stage {
    /// Service policy; its seed is re-derived per trial.
    svc::service_config config = {};
    /// Worker crash + stall events per 1000 cycles (0 = reliable
    /// workers).
    double worker_fault_intensity = 0.0;
};

struct scenario {
    std::uint32_t trials = 20;
    cycle_t measure_cycles = 100'000; ///< simulated window per trial
    std::uint64_t seed = 1;           ///< trial t runs from seed + t
    /// Worker threads for the trial sweep (0 = all hardware threads).
    /// Results are bit-identical for any setting; see sim::trial_runner.
    unsigned threads = 1;

    workload_draw workload = {};
    client_seeding seeding = client_seeding::substream;
    /// Clients recover lost requests: one unanswered for 2048 cycles is
    /// reissued under a fresh id, up to 3 times, with exponential
    /// backoff (workload::traffic_gen_config).
    bool client_retry = false;

    memctrl_config memctrl = {};
    /// BlueTree/BlueTree-Smooth blocking factor.
    std::uint32_t bluetree_alpha = 2;
    /// SE parameter override for BlueScale (ablations).
    std::optional<core::se_params> bluescale_se;
    /// Interface selection may accept this much extra bandwidth over the
    /// strict minimum for larger server periods (BlueScale only; see
    /// analysis::analysis_context).
    double bandwidth_tolerance = 0.0;
    /// Provision (Pi, Theta) and police supply against the
    /// maintenance-corrected sbf of `memctrl` (mem::to_maintenance_model)
    /// instead of the raw one: budgeted refresh, scrub and mitigation
    /// then never alarm the watchdog.
    bool maintenance_aware = false;
    /// Do not simulate a trial whose interface selection is infeasible:
    /// admission refused the workload, so there is no admitted system to
    /// measure. The trial still adds a zero to every per-trial series.
    bool skip_refused_trials = false;

    /// Fault campaign: seed, horizon and n_elements (the BlueScale-sized
    /// SE population) are set per trial; intensity, kind weights and
    /// durations come from here.
    std::optional<sim::fault_campaign_config> faults;
    /// Task-change request stream: seed, horizon and n_clients are set
    /// per trial. Requests go to the service when there is one, else to
    /// the reconfiguration manager, else (a design without admission
    /// control) straight into the clients.
    std::optional<sim::reconfig_schedule_config> requests;
    /// Supervisors; each is built only on BlueScale (see testbench).
    std::optional<core::health_config> health;
    std::optional<core::watchdog_config> watchdog;
    std::optional<core::reconfig_config> reconfig;
    std::optional<service_stage> service;

    /// Merge each trial's testbench registry into sweep_result::metrics.
    bool collect_metrics = false;
    /// Take that snapshot before the clients are finalized (unfinished
    /// jobs not yet counted abandoned), as the Fig. 6 family always has.
    bool metrics_before_finalize = false;
    /// Export trial 0's event trace into sweep_result::trace (empty when
    /// the build has BLUESCALE_TRACE=OFF).
    bool collect_trace = false;
    /// Wall-clock profiling (simulator per-component tick cost and sweep
    /// throughput) into sweep_result::profile; never leaks into metrics.
    bool profile = false;
};

struct sweep_result {
    /// Per-trial aggregates merged in trial order (vocabulary above).
    obs::snapshot totals;
    /// Per-trial testbench registries merged in trial order, when
    /// collect_metrics.
    obs::snapshot metrics;
    /// Trial 0's event trace, when collect_trace.
    obs::trace_export trace;
    /// Profile-flagged metrics (per-trial simulator costs plus the sweep
    /// totals), when profile. Nondeterministic by nature.
    obs::snapshot profile;

    /// A counter of `totals` (0 when absent).
    [[nodiscard]] std::uint64_t count(std::string_view name) const;
    /// A series of `totals` (empty when absent).
    [[nodiscard]] const stats::sample_set& series(std::string_view name) const;
    /// A derived ratio of `totals` (0 when absent).
    [[nodiscard]] double ratio(std::string_view name) const;
};

/// Runs `s.trials` trials of one design; trial t's workload, fault
/// schedule and request stream are pure functions of s.seed + t.
[[nodiscard]] sweep_result run_sweep(ic_kind kind, const scenario& s);

} // namespace bluescale::harness
