// Ablation A1 (DESIGN.md): BlueTree's blocking factor alpha. The paper
// fixes alpha = 2 at hardware-development time (Sec. 2.2) -- this sweep
// shows how the heuristic's one-knob priority trades the two subtree
// halves off against each other, and that no alpha setting reaches
// BlueScale's deadline-aware behaviour.
//
//   $ ./bench/ablation_alpha [--trials N] [--cycles N] [--threads N]
//                            [--seed N] [--csv out.csv]
//                            [--metrics out.csv] [--trace out.json]
//
// --csv dumps one row per table row with the raw aggregates. --metrics
// and --trace export the BlueTree alpha=2 sweep (the paper's setting).
#include <cstdio>
#include <string>
#include <utility>

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
        argc, argv, defaults, "Ablation A1: BlueTree blocking factor alpha",
        k_sweep_flags);

    const auto csv = open_bench_csv(
        opts, {"config", "blocking_us", "worst_us", "miss_ratio"});

    std::printf("Ablation A1: BlueTree blocking factor alpha "
                "(16 clients, utilization 70-90%%)\n\n");

    scenario s;
    s.trials = opts.trials;
    s.measure_cycles = opts.measure_cycles;
    s.seed = opts.seed;
    s.threads = opts.threads;
    s.seeding = client_seeding::fig6_xor;

    stats::table t({"config", "blocking lat (us)", "worst (us)",
                    "miss ratio"});
    const auto add_row = [&t, &csv](std::string config,
                                    const sweep_result& r) {
        add_bench_csv_row(csv.get(), {config}, r.totals,
                          {"blocking_us", "worst_blocking_us", "miss_ratio"});
        t.add_row({std::move(config),
                   stats::table::num(r.series("blocking_us").mean(), 3),
                   stats::table::num(r.series("worst_blocking_us").mean(), 2),
                   stats::table::pct(r.series("miss_ratio").mean(), 2)});
    };
    for (std::uint32_t alpha : {1u, 2u, 4u, 8u}) {
        s.bluetree_alpha = alpha;
        add_row("BlueTree alpha=" + std::to_string(alpha),
                run_bench_sweep(opts, ic_kind::bluetree, s, alpha == 2));
    }
    s.bluetree_alpha = 2;
    add_row("BlueScale (reference)", run_sweep(ic_kind::bluescale, s));
    t.print();
    return 0;
}
