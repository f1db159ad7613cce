// Hardened analysis-as-a-service under admission storms (robustness
// extension, not a paper figure): sweeps the request rate of a
// seed-driven storm of client task-change requests fired at
// svc::analysis_service -- the bounded-queue, multi-worker admission
// server fronting core::reconfig_manager -- while worker crash/stall
// faults and fabric path hazards run concurrently. Reports, per rate,
// the outcome mix (committed / rejected / expired / shed), retry and
// crash-requeue activity, result-cache hit rate, and the conservation +
// hard-client acceptance checks.
//
//   $ ./bench/svc_storm [--trials N] [--cycles N] [--threads N]
//                       [--seed N] [--csv out.csv]
//                       [--metrics out.csv] [--trace out.json]
//
// --csv dumps one row per rate with the raw aggregates (cells rendered
// through obs::metric_cells off the sweep's totals); the file is
// byte-identical for any --threads setting and for the event vs lockstep
// engines. --metrics dumps the merged per-trial obs::registry
// snapshot and --trace the trial-0 event trace, both at the highest
// rate.
#include <cstdio>
#include <string>
#include <vector>

#include "harness/bench_cli.hpp"
#include "harness/scenario.hpp"
#include "stats/table.hpp"

using namespace bluescale;
using namespace bluescale::harness;

namespace {

/// Service requests per 1000 cycles (the storm intensity).
constexpr double k_rates[] = {0.5, 2.0, 8.0};

} // namespace

int main(int argc, char** argv) {
    bench_options defaults;
    defaults.trials = 8;
    defaults.measure_cycles = 60'000;
    const auto opts = parse_bench_cli(
        argc, argv, defaults,
        "Svc storm: bounded-queue multi-worker admission service under "
        "overload, worker faults and path hazards",
        k_sweep_flags);

    const auto csv = open_bench_csv(
        opts,
        {"rate", "submitted", "shed", "expired", "committed", "rejected",
         "rejected_infeasible", "rejected_overutilized",
         "rejected_path_hazard", "rolled_back", "retries", "requeues",
         "worker_crashes", "worker_stall_cycles", "cache_hits",
         "cache_misses", "cache_hit_ratio", "cache_invalidations",
         "stale_reevals", "mean_latency_cycles", "max_latency_cycles",
         "mean_eval_cycles", "miss_ratio", "hard_misses",
         "best_effort_misses", "live_reconfigurations", "feasible_trials",
         "drained_trials", "conserved_trials"});

    std::printf("Hardened analysis service under admission storms, "
                "worker faults and path hazards\n");
    std::printf("\n=== request-rate sweep, %u trials, %llu cycles/trial "
                "===\n",
                opts.trials,
                static_cast<unsigned long long>(opts.measure_cycles));

    stats::table t({"rate", "submitted", "shed", "expired", "commit",
                    "reject", "retry/requeue", "cache hit%", "lat (cyc)",
                    "hard miss", "conserved"});
    scenario s;
    s.trials = opts.trials;
    s.measure_cycles = opts.measure_cycles;
    s.seed = opts.seed;
    s.threads = opts.threads;
    s.workload.best_effort_clients = 4;
    s.client_retry = true;
    // Fabric faults force path-hazard rejections and service retries.
    s.faults = sim::fault_campaign_config{.events_per_kcycle = 0.05};
    s.reconfig = core::reconfig_config{};
    s.service = service_stage{.worker_fault_intensity = 0.05};
    s.service->config.default_deadline = 20'000;
    for (double rate : k_rates) {
        s.requests = sim::reconfig_schedule_config{
            .warmup = 2'000, .events_per_kcycle = rate};
        const sweep_result r =
            run_bench_sweep(opts, ic_kind::bluescale, s, rate == k_rates[2]);
        const auto count = [&r](const char* name) {
            return std::to_string(r.count(name));
        };
        t.add_row({stats::table::num(rate, 1), count("submitted"),
                   count("shed"), count("expired"), count("committed"),
                   count("rejected"),
                   count("request_retries") + "/" + count("requeues"),
                   stats::table::pct(r.ratio("cache_hit_ratio"), 1),
                   stats::table::num(
                       r.series("request_latency_cycles").mean(), 0),
                   count("hard_misses"),
                   count("conserved_trials") + "/" +
                       std::to_string(s.trials)});
        add_bench_csv_row(
            csv.get(), {std::to_string(rate)}, r.totals,
            {"submitted", "shed", "expired", "committed", "rejected",
             "rejected_infeasible", "rejected_overutilized",
             "rejected_path_hazard", "rolled_back", "request_retries",
             "requeues", "worker_crashes", "worker_stall_cycles",
             "cache_hits", "cache_misses", "cache_hit_ratio",
             "cache_invalidations", "stale_reevals",
             "request_latency_cycles", "request_latency_cycles:max",
             "eval_cycles", "miss_ratio", "hard_misses",
             "best_effort_misses", "live_reconfigurations",
             "feasible_trials", "drained_trials", "conserved_trials"});
    }
    t.print();
    return 0;
}
