// Ablation A2 (DESIGN.md): depth of the SE's random access buffers. The
// paper's register-chain buffer is a real silicon cost (Table 1's LUT
// delta over BlueTree); this sweep measures what the depth buys in
// blocking latency and deadline misses.
//
//   $ ./bench/ablation_buffer_depth [--trials N] [--cycles N] [--threads N]
//                                   [--seed N] [--csv out.csv]
//                                   [--metrics out.csv] [--trace out.json]
//
// --csv dumps one row per buffer depth with the raw aggregates. --metrics
// and --trace export the depth-8 sweep (the SE default).
#include <cstdio>
#include <string>

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
        "Ablation A2: BlueScale random-access-buffer depth",
        k_sweep_flags);

    const auto csv = open_bench_csv(
        opts, {"buffer_depth", "blocking_us", "worst_us", "miss_ratio"});

    std::printf("Ablation A2: BlueScale random-access-buffer depth "
                "(16 clients, utilization 70-90%%)\n\n");

    stats::table t({"buffer depth", "blocking lat (us)", "worst (us)",
                    "miss ratio"});
    scenario s;
    s.trials = opts.trials;
    s.measure_cycles = opts.measure_cycles;
    s.seed = opts.seed;
    s.threads = opts.threads;
    s.seeding = client_seeding::fig6_xor;
    for (std::size_t depth : {2u, 4u, 8u, 16u, 32u}) {
        core::se_params se;
        se.buffer_depth = depth;
        s.bluescale_se = se;
        const sweep_result r = run_bench_sweep(
            opts, ic_kind::bluescale, s,
            depth == core::se_params{}.buffer_depth);
        add_bench_csv_row(csv.get(), {std::to_string(depth)}, r.totals,
                          {"blocking_us", "worst_blocking_us",
                           "miss_ratio"});
        t.add_row({std::to_string(depth),
                   stats::table::num(r.series("blocking_us").mean(), 3),
                   stats::table::num(r.series("worst_blocking_us").mean(), 2),
                   stats::table::pct(r.series("miss_ratio").mean(), 2)});
    }
    t.print();
    return 0;
}
