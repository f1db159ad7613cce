// Ablation A4 (DESIGN.md): memory-controller transaction policy under
// each interconnect. FR-FCFS trades a bounded amount of reordering for
// bank-level parallelism; FCFS is strictly in-order.
//
//   $ ./bench/ablation_memctrl [--trials N] [--cycles N] [--threads N]
//                              [--seed N] [--csv out.csv]
//                              [--metrics out.csv] [--trace out.json]
//
// --csv dumps one row per row of both tables with the raw aggregates,
// keyed by table ("policy" or "refresh"), design and setting. --metrics
// and --trace export the BlueScale FR-FCFS sweep of the policy table (the
// default controller, refresh off).
#include <cstdio>
#include <string>
#include <vector>

#include "harness/bench_cli.hpp"
#include "harness/scenario.hpp"
#include "stats/table.hpp"

using namespace bluescale;
using namespace bluescale::harness;

int main(int argc, char** argv) {
    bench_options defaults;
    defaults.trials = 6;
    defaults.measure_cycles = 60'000;
    const auto opts = parse_bench_cli(
        argc, argv, defaults,
        "Ablation A4: memory controller policy x interconnect",
        k_sweep_flags);

    const auto csv = open_bench_csv(
        opts, {"table", "design", "setting", "blocking_us", "worst_us",
               "miss_ratio"});
    const std::vector<std::string> cells{"blocking_us", "worst_blocking_us",
                                         "miss_ratio"};

    std::printf("Ablation A4: memory controller policy x interconnect "
                "(16 clients, utilization 70-90%%)\n\n");

    scenario base;
    base.trials = opts.trials;
    base.measure_cycles = opts.measure_cycles;
    base.seed = opts.seed;
    base.threads = opts.threads;
    base.seeding = client_seeding::fig6_xor;

    stats::table t({"design", "policy", "blocking lat (us)",
                    "miss ratio"});
    for (ic_kind kind : {ic_kind::bluescale, ic_kind::axi_icrt,
                         ic_kind::bluetree, ic_kind::gsmtree_tdm}) {
        for (memctrl_policy policy :
             {memctrl_policy::fr_fcfs, memctrl_policy::fcfs}) {
            scenario s = base;
            s.memctrl.policy = policy;
            const sweep_result r = run_bench_sweep(
                opts, kind, s,
                kind == ic_kind::bluescale &&
                    policy == memctrl_policy::fr_fcfs);
            const char* name =
                policy == memctrl_policy::fcfs ? "FCFS" : "FR-FCFS";
            add_bench_csv_row(csv.get(), {"policy", kind_name(kind), name},
                              r.totals, cells);
            t.add_row({kind_name(kind), name,
                       stats::table::num(r.series("blocking_us").mean(), 3),
                       stats::table::pct(r.series("miss_ratio").mean(), 2)});
        }
    }
    t.print();

    // DRAM refresh: a fixed-cadence disturbance that steals ~3% of the
    // device time and closes every row. Predictable designs must absorb
    // it; the table shows the worst-case/miss impact per design.
    std::printf("\nDRAM refresh disturbance (tREFI=1560, tRFC=44 cycles, "
                "~2.8%% duty):\n");
    stats::table rt({"design", "refresh", "worst (us)", "miss ratio"});
    for (ic_kind kind : {ic_kind::bluescale, ic_kind::axi_icrt,
                         ic_kind::bluetree}) {
        for (bool refresh : {false, true}) {
            scenario s = base;
            if (refresh) {
                s.memctrl.timing.t_refi = 1560;
                s.memctrl.timing.t_rfc = 44;
            }
            const sweep_result r = run_sweep(kind, s);
            add_bench_csv_row(csv.get(),
                              {"refresh", kind_name(kind),
                               refresh ? "on" : "off"},
                              r.totals, cells);
            rt.add_row({kind_name(kind), refresh ? "on" : "off",
                        stats::table::num(r.series("worst_blocking_us").mean(),
                                          2),
                        stats::table::pct(r.series("miss_ratio").mean(), 2)});
        }
    }
    rt.print();
    return 0;
}
