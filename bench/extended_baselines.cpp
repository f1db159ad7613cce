// Extended baseline comparison (beyond the paper's six): adds
// AXI-HyperConnect [15] -- fair round-robin with per-client outstanding
// caps -- to the Fig. 6 synthetic-workload experiment, locating it
// between the heuristic trees and the deadline-aware designs.
//
//   $ ./bench/extended_baselines [--trials N] [--cycles N] [--threads N]
//                                [--seed N] [--csv out.csv]
//                                [--metrics out.csv] [--trace out.json]
//
// --csv dumps one row per design with the raw aggregates. --metrics and
// --trace export the AXI-HyperConnect sweep (the design this bench adds).
#include <cstdio>

#include "harness/bench_cli.hpp"
#include "harness/scenario.hpp"
#include "stats/table.hpp"

using namespace bluescale;
using namespace bluescale::harness;

int main(int argc, char** argv) {
    bench_options defaults;
    defaults.trials = 8;
    defaults.measure_cycles = 60'000;
    const auto opts = parse_bench_cli(
        argc, argv, defaults,
        "Extended baselines: the paper's six plus AXI-HyperConnect",
        k_sweep_flags);

    const auto csv = open_bench_csv(
        opts, {"design", "blocking_us", "worst_us", "miss_ratio"});

    std::printf("Extended baselines: the paper's six plus "
                "AXI-HyperConnect [15] (16 clients, utilization "
                "70-90%%)\n\n");

    scenario s;
    s.trials = opts.trials;
    s.measure_cycles = opts.measure_cycles;
    s.seed = opts.seed;
    s.threads = opts.threads;
    s.seeding = client_seeding::fig6_xor;

    stats::table t({"design", "blocking lat (us)", "worst (us)",
                    "miss ratio"});
    for (ic_kind kind : k_extended_kinds) {
        const sweep_result r = run_bench_sweep(
            opts, kind, s, kind == ic_kind::axi_hyperconnect);
        add_bench_csv_row(csv.get(), {kind_name(kind)}, r.totals,
                          {"blocking_us", "worst_blocking_us",
                           "miss_ratio"});
        t.add_row({kind_name(kind),
                   stats::table::num(r.series("blocking_us").mean(), 3),
                   stats::table::num(r.series("worst_blocking_us").mean(), 2),
                   stats::table::pct(r.series("miss_ratio").mean(), 2)});
    }
    t.print();
    return 0;
}
