// Runtime admission control and transactional reconfiguration
// (robustness extension, not a paper figure): sweeps the request rate of
// a seed-driven reconfiguration schedule (client task-set scale-ups and
// -downs, joins, leaves) over the Fig. 6 synthetic workload and reports,
// per design, the admission ratio by outcome, the modeled
// reconfiguration latency, deadline misses during transitions, and
// overload shed/restore activity. BlueScale routes every request through
// the online Sec. 5 admission test with transactional commit; the
// BlueTree baseline applies every change unconditionally with zero
// latency.
//
//   $ ./bench/reconfig [--trials N] [--cycles N] [--threads N]
//                      [--seed N] [--csv out.csv]
//                      [--metrics out.csv] [--trace out.json]
//
// --csv dumps one row per (design, rate) with the raw aggregates (cells
// rendered through obs::metric_cells off the sweep's totals); the file
// is byte-identical for any --threads setting.
// --metrics dumps the BlueScale design's merged per-trial obs::registry
// snapshot and --trace its trial-0 event trace, both at the highest
// request rate; the metrics file is likewise byte-identical for any
// --threads setting.
#include <cstdio>
#include <string>
#include <vector>

#include "harness/bench_cli.hpp"
#include "harness/scenario.hpp"
#include "stats/table.hpp"

using namespace bluescale;
using namespace bluescale::harness;

namespace {

/// Reconfiguration requests per 1000 cycles.
constexpr double k_rates[] = {0.05, 0.2, 0.5};
constexpr ic_kind k_designs[] = {ic_kind::bluetree, ic_kind::bluescale};

void run_design(ic_kind kind, const bench_options& opts,
                stats::csv_writer* csv) {
    std::printf("\n=== %s: request-rate sweep, %u trials, %llu "
                "cycles/trial ===\n",
                kind_name(kind), opts.trials,
                static_cast<unsigned long long>(opts.measure_cycles));

    stats::table t({"rate", "submitted", "admit%", "commit", "rollbk",
                    "rej inf/over/haz", "lat (cyc)", "trans miss",
                    "miss ratio", "hard miss", "BE miss", "shed/rest"});
    scenario s;
    s.trials = opts.trials;
    s.measure_cycles = opts.measure_cycles;
    s.seed = opts.seed;
    s.threads = opts.threads;
    // The last four clients are best-effort: the watchdog may shed them
    // under sustained overload; the rest keep their contracts.
    s.workload.best_effort_clients = 4;
    s.client_retry = true;
    s.health = core::health_config{};
    s.watchdog = core::watchdog_config{};
    s.reconfig = core::reconfig_config{};
    for (double rate : k_rates) {
        // Requests start after a warmup that lets the initial selection
        // settle.
        s.requests = sim::reconfig_schedule_config{
            .warmup = 5'000, .events_per_kcycle = rate};
        // Obs exports cover the BlueScale design at the highest request
        // rate (the most eventful run on a timeline).
        const sweep_result r = run_bench_sweep(
            opts, kind, s, kind == ic_kind::bluescale && rate == k_rates[2]);
        const auto count = [&r](const char* name) {
            return std::to_string(r.count(name));
        };
        t.add_row({stats::table::num(rate, 2),
                   std::to_string(r.count("submitted") +
                                  r.count("applied_unchecked")),
                   stats::table::pct(r.ratio("admission_ratio"), 1),
                   count("committed"), count("rolled_back"),
                   count("rejected_infeasible") + "/" +
                       count("rejected_overutilized") + "/" +
                       count("rejected_path_hazard"),
                   stats::table::num(
                       r.series("reconfig_latency_cycles").mean(), 0),
                   count("transition_misses"),
                   stats::table::pct(r.series("miss_ratio").mean(), 2),
                   count("hard_misses"), count("best_effort_misses"),
                   count("shed_events") + "/" + count("restore_events")});
        // Raw aggregate cells come off the sweep's totals through the one
        // exporter path; only the design key and the sweep coordinate are
        // composed here.
        add_bench_csv_row(
            csv, {kind_name(kind), std::to_string(rate)}, r.totals,
            {"submitted", "applied_unchecked", "admitted", "committed",
             "rolled_back", "rejected_infeasible", "rejected_overutilized",
             "rejected_path_hazard", "admission_ratio",
             "reconfig_latency_cycles", "reconfig_latency_cycles:max",
             "transition_misses", "miss_ratio", "miss_ratio:sd",
             "hard_misses", "best_effort_misses", "live_reconfigurations",
             "windows_checked", "violating_windows",
             "supply_shortfall_alarms", "shed_events", "restore_events",
             "shed_client_cycles", "shed_deferrals", "feasible_trials"});
    }
    t.print();
}

} // namespace

int main(int argc, char** argv) {
    bench_options defaults;
    defaults.trials = 10;
    defaults.measure_cycles = 100'000;
    const auto opts = parse_bench_cli(
        argc, argv, defaults,
        "Reconfig: online admission control, transactional (Pi, Theta) "
        "reconfiguration and overload shedding",
        k_sweep_flags);

    const auto csv = open_bench_csv(
        opts,
        {"design", "rate", "submitted", "applied_unchecked", "admitted",
         "committed", "rolled_back", "rejected_infeasible",
         "rejected_overutilized", "rejected_path_hazard", "admission_ratio",
         "mean_latency_cycles", "max_latency_cycles", "transition_misses",
         "miss_ratio", "miss_sd", "hard_misses", "best_effort_misses",
         "live_reconfigurations", "windows_checked", "violating_windows",
         "supply_shortfall_alarms", "shed_events", "restore_events",
         "shed_client_cycles", "shed_deferrals", "feasible_trials"});

    std::printf("Runtime admission control and transactional "
                "reconfiguration under churn\n");
    for (ic_kind kind : k_designs) {
        run_design(kind, opts, csv.get());
    }
    return 0;
}
