// DRAM-maintenance robustness sweep (robustness extension, not a paper
// figure): crosses refresh cadence x scrub rate x RowHammer threshold
// over the BlueScale stack, once with maintenance-UNAWARE admission (the
// paper's raw sbf) and once with the maintenance-corrected supply bound
// wired into both interface selection and the supply watchdog. A fixed
// low-rate maintenance-STORM campaign (unmodeled excess scrubbing) rides
// along so the watchdog-alarm columns separate budgeted interference
// (aware mode: no alarms) from unbudgeted interference (alarms + shed).
//
//   $ ./bench/maintenance [--trials N] [--cycles N] [--threads N]
//                         [--seed N] [--csv out.csv]
//                         [--metrics out.csv] [--trace out.json]
//
// --csv dumps one row per (mode, refresh, scrub, hammer) cell with the
// raw aggregates (rendered through obs::metric_cells off the sweep's
// totals); the file is byte-identical for any --threads setting.
// --metrics and --trace export the maintenance-aware cell with DDR3
// refresh and scrubbing on and RowHammer mitigation off (with mitigation
// on as well, admission refuses most trials, leaving little to export).
//
// A trial whose admission analysis is infeasible is not simulated: it
// adds zeros to the per-trial series and shows only in the
// trials-minus-feasible gap (admission control refused the workload;
// there is no admitted system to measure).
#include <cstdio>
#include <string>
#include <vector>

#include "harness/bench_cli.hpp"
#include "harness/scenario.hpp"
#include "stats/table.hpp"

using namespace bluescale;
using namespace bluescale::harness;

namespace {

struct refresh_point {
    const char* name;
    std::uint32_t t_refi;
    std::uint32_t t_rfc;
};
struct scrub_point {
    const char* name;
    std::uint64_t interval;
    std::uint32_t duration;
};
struct hammer_point {
    const char* name;
    std::uint64_t threshold;
    std::uint32_t mitigation;
};

// Refresh cadence: off, the DDR3-1600 preset, and a 2x-hotter device
// (halved t_refi, e.g. high-temperature operation doubling refresh rate).
constexpr refresh_point k_refresh[] = {
    {"off", 0, 0}, {"ddr3", 1950, 65}, {"2x", 975, 65}};
constexpr scrub_point k_scrub[] = {{"off", 0, 0}, {"on", 2048, 32}};
constexpr hammer_point k_hammer[] = {{"off", 0, 0}, {"on", 256, 32}};

void run_mode(bool aware, const bench_options& opts,
              stats::csv_writer* csv) {
    scenario base;
    base.trials = opts.trials;
    base.measure_cycles = opts.measure_cycles;
    base.seed = opts.seed;
    base.threads = opts.threads;
    // Task periods sit well above the maintenance burst (a refresh
    // blackout is ~16 analysis units): real task periods dwarf t_RFC, and
    // a wcet-sized demand inside a burst-sized deadline would force the
    // corrected analysis to provision nearly the whole device per client.
    base.workload.util_lo = 0.40;
    base.workload.util_hi = 0.60;
    base.workload.taskset = {
        .n_tasks = 3,
        .total_utilization = 0.05, // overridden per trial by util_lo/hi
        .min_period_units = 300,
        .max_period_units = 1500,
        .write_fraction = 0.3,
    };
    base.workload.best_effort_clients = 4;
    // Applied in BOTH modes so the comparison is apples-to-apples: the
    // strict-minimum selection picks server periods comparable to the
    // maintenance burst, which makes the corrected test infeasible at
    // the level above.
    base.bandwidth_tolerance = 0.10;
    // The one toggle under study: provision (Pi, Theta) against the
    // maintenance-corrected sbf AND police supply with the same model, so
    // budgeted refresh/scrub/mitigation never alarms.
    base.maintenance_aware = aware;
    base.skip_refused_trials = true;
    base.watchdog = core::watchdog_config{};
    // Fixed unmodeled-interference floor: rare short maintenance storms
    // (and nothing else) the corrected bound does NOT budget for, so the
    // watchdog columns stay meaningful in aware mode too.
    base.faults = sim::fault_campaign_config{
        .events_per_kcycle = 0.02,
        .se_stall_weight = 0.0,
        .link_drop_weight = 0.0,
        .dram_error_weight = 0.0,
        .backpressure_weight = 0.0,
        .maintenance_storm_weight = 1.0,
        .min_duration = 64,
        .max_duration = 256,
    };

    std::printf("\n=== %s admission: refresh x scrub x hammer sweep, "
                "%u trials, %llu cycles/trial ===\n",
                aware ? "maintenance-aware" : "maintenance-unaware",
                opts.trials,
                static_cast<unsigned long long>(opts.measure_cycles));

    stats::table t({"refresh", "scrub", "hammer", "hard miss", "BE miss",
                    "p99 (cyc)", "stolen (cyc)", "shortfalls", "dl alarms",
                    "shed/rest", "feas"});
    for (const auto& rf : k_refresh) {
        for (const auto& sc : k_scrub) {
            for (const auto& hm : k_hammer) {
                scenario s = base;
                s.memctrl.timing.t_refi = rf.t_refi;
                s.memctrl.timing.t_rfc = rf.t_rfc;
                s.memctrl.maintenance.scrub_interval = sc.interval;
                s.memctrl.maintenance.scrub_duration = sc.duration;
                s.memctrl.maintenance.hammer_threshold = hm.threshold;
                s.memctrl.maintenance.hammer_mitigation_cycles =
                    hm.mitigation;

                const sweep_result r = run_bench_sweep(
                    opts, ic_kind::bluescale, s,
                    aware && rf.t_refi == k_refresh[1].t_refi &&
                        sc.interval != 0 && hm.threshold == 0);
                const auto count = [&r](const char* name) {
                    return std::to_string(r.count(name));
                };
                t.add_row(
                    {rf.name, sc.name, hm.name,
                     stats::table::pct(r.series("hard_miss_ratio").mean(),
                                       2),
                     stats::table::pct(
                         r.series("best_effort_miss_ratio").mean(), 2),
                     stats::table::num(
                         r.series("p99_latency_cycles").mean(), 1),
                     count("maintenance_stolen_cycles"),
                     count("supply_shortfall_alarms"),
                     count("deadline_alarms"),
                     count("shed_events") + "/" + count("restore_events"),
                     count("feasible_trials")});
                // Raw aggregate cells come off the sweep's totals through
                // the one exporter path; only the sweep coordinates are
                // composed here.
                add_bench_csv_row(
                    csv,
                    {aware ? "aware" : "unaware", std::to_string(rf.t_refi),
                     std::to_string(sc.interval),
                     std::to_string(hm.threshold)},
                    r.totals,
                    {"hard_miss_ratio", "hard_miss_ratio:sd",
                     "best_effort_miss_ratio", "p99_latency_cycles",
                     "hard_misses", "best_effort_misses", "refreshes",
                     "scrubs", "hammer_mitigations",
                     "maintenance_stolen_cycles",
                     "maintenance_storm_cycles", "injected_events",
                     "windows_checked", "supply_shortfall_alarms",
                     "deadline_alarms", "shed_events", "restore_events",
                     "shed_client_cycles", "feasible_trials"});
            }
        }
    }
    t.print();
}

} // namespace

int main(int argc, char** argv) {
    bench_options defaults;
    defaults.trials = 6;
    defaults.measure_cycles = 40'000;
    const auto opts = parse_bench_cli(
        argc, argv, defaults,
        "Maintenance: deadline misses and watchdog alarms under DRAM "
        "refresh/scrub/RowHammer interference",
        k_sweep_flags);

    const auto csv = open_bench_csv(
        opts, {"mode", "t_refi", "scrub_interval", "hammer_threshold",
               "hard_miss_ratio", "hard_miss_sd", "be_miss_ratio",
               "p99_cycles", "hard_misses", "best_effort_misses",
               "refreshes", "scrubs", "hammer_mitigations",
               "stolen_cycles", "storm_cycles", "injected_storms",
               "windows_checked", "supply_shortfall_alarms",
               "deadline_alarms", "shed_events", "restore_events",
               "shed_client_cycles", "feasible_trials"});

    std::printf("DRAM maintenance: maintenance-aware vs -unaware "
                "admission under refresh/scrub/RowHammer\n");
    run_mode(false, opts, csv.get());
    run_mode(true, opts, csv.get());
    return 0;
}
