// Resilience under fault injection (robustness extension, not a paper
// figure): sweeps a seed-driven fault campaign's intensity over the Fig. 6
// synthetic workload and reports, per design, the deadline-miss ratio,
// p99 and worst-case latency inflation relative to the healthy run,
// recovery counter totals, and the mean time-to-recover of degraded
// BlueScale elements.
//
//   $ ./bench/resilience [--trials N] [--cycles N] [--threads N]
//                        [--seed N] [--csv out.csv]
//                        [--metrics out.csv] [--trace out.json]
//
// --csv dumps one row per (design, intensity) with the raw aggregates
// (cells rendered through obs::metric_cells off the sweep's totals);
// the file is byte-identical for any --threads setting.
// --metrics dumps the BlueScale design's merged per-trial obs::registry
// snapshot and --trace its trial-0 event trace, both at the highest
// fault intensity; the metrics file is likewise byte-identical for any
// --threads setting.
#include <cstdio>
#include <string>
#include <vector>

#include "harness/bench_cli.hpp"
#include "harness/scenario.hpp"
#include "obs/registry.hpp"
#include "stats/table.hpp"

using namespace bluescale;
using namespace bluescale::harness;

namespace {

constexpr double k_intensities[] = {0.0, 0.2, 0.5, 1.0};
constexpr ic_kind k_designs[] = {ic_kind::bluetree,
                                 ic_kind::bluetree_smooth,
                                 ic_kind::bluescale};

void run_design(ic_kind kind, const bench_options& opts,
                stats::csv_writer* csv) {
    std::printf("\n=== %s: fault-intensity sweep, %u trials, %llu "
                "cycles/trial ===\n",
                kind_name(kind), opts.trials,
                static_cast<unsigned long long>(opts.measure_cycles));

    stats::table t({"intensity", "miss ratio", "p99 (cyc)", "p99 infl",
                    "worst (cyc)", "retries", "timeouts", "ecc", "drops",
                    "degr/recov", "mean TTR"});
    scenario s;
    s.trials = opts.trials;
    s.measure_cycles = opts.measure_cycles;
    s.seed = opts.seed;
    s.threads = opts.threads;
    // Clients recover with bounded retry/timeout reissue; the BlueScale
    // fabric additionally degrades unhealthy elements under a monitor.
    s.client_retry = true;
    s.health = core::health_config{};
    double healthy_p99 = 0.0;
    double healthy_worst = 0.0;
    for (double intensity : k_intensities) {
        s.faults = sim::fault_campaign_config{.events_per_kcycle = intensity};
        // Obs exports cover the BlueScale design at the highest intensity
        // (the most eventful run on a timeline).
        const sweep_result r = run_bench_sweep(
            opts, kind, s,
            kind == ic_kind::bluescale && intensity == k_intensities[3]);
        const double p99 = r.series("p99_latency_cycles").mean();
        const double worst = r.series("worst_latency_cycles").mean();
        if (intensity == 0.0) {
            healthy_p99 = p99;
            healthy_worst = worst;
        }
        const double p99_inflation =
            healthy_p99 == 0.0 ? 0.0 : p99 / healthy_p99;
        const double worst_inflation =
            healthy_worst == 0.0 ? 0.0 : worst / healthy_worst;

        t.add_row({stats::table::num(intensity, 1),
                   stats::table::pct(r.series("miss_ratio").mean(), 2),
                   stats::table::num(p99, 1),
                   stats::table::num(p99_inflation, 2),
                   stats::table::num(worst, 1),
                   std::to_string(r.count("retries")),
                   std::to_string(r.count("timeouts")),
                   std::to_string(r.count("ecc_retries")),
                   std::to_string(r.count("link_drops")),
                   std::to_string(r.count("degrade_events")) + "/" +
                       std::to_string(r.count("recovery_events")),
                   stats::table::num(
                       r.series("time_to_recover_cycles").mean(), 0)});
        if (csv != nullptr) {
            // Raw aggregate cells come off the sweep's totals through
            // the one exporter path; only the design key, the sweep
            // coordinate and the cross-run inflation ratios are composed
            // here.
            std::vector<std::string> row{kind_name(kind),
                                         std::to_string(intensity)};
            const auto append = [&](std::vector<std::string> names) {
                for (auto& cell : obs::metric_cells(r.totals, names)) {
                    row.push_back(std::move(cell));
                }
            };
            append({"miss_ratio", "miss_ratio:sd", "p99_latency_cycles"});
            row.push_back(std::to_string(p99_inflation));
            append({"worst_latency_cycles"});
            row.push_back(std::to_string(worst_inflation));
            append({"injected_events", "stall_windows", "se_stall_cycles",
                    "link_drops", "ecc_retries", "uncorrected_errors",
                    "storm_cycles", "retries", "timeouts",
                    "retry_exhausted", "stale_responses",
                    "failed_responses", "degrade_events",
                    "recovery_events", "degraded_se_cycles",
                    "time_to_recover_cycles", "feasible_trials"});
            csv->add_row(row);
        }
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
        "Resilience: deadline misses and latency inflation under "
        "fault-injection campaigns",
        k_sweep_flags);

    const auto csv = open_bench_csv(
        opts,
        {"design", "intensity", "miss_ratio", "miss_sd", "p99_cycles",
         "p99_inflation", "worst_cycles", "worst_inflation",
         "injected_events", "stall_windows", "se_stall_cycles",
         "link_drops", "ecc_retries", "uncorrected_errors", "storm_cycles",
         "retries", "timeouts", "retry_exhausted", "stale_responses",
         "failed_responses", "degrade_events", "recovery_events",
         "degraded_se_cycles", "mean_time_to_recover", "feasible_trials"});

    std::printf("Resilience under fault injection: retry/timeout recovery "
                "and graceful degradation\n");
    for (ic_kind kind : k_designs) {
        run_design(kind, opts, csv.get());
    }
    return 0;
}
