// Ablation A5 (DESIGN.md): the SE's upper-level queue policy. The paper
// schedules server tasks GEDF (Algorithm 1); this sweep compares GEDF
// against fixed-priority servers, and shows what the work-conserving
// slack-reclamation fallback contributes.
//
//   $ ./bench/ablation_server_policy [--trials N] [--cycles N] [--threads N]
//                                    [--seed N] [--csv out.csv]
//                                    [--metrics out.csv] [--trace out.json]
//
// --csv dumps one row per variant with the raw aggregates. --metrics and
// --trace export the paper's variant (GEDF + work-conserving).
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
        argc, argv, defaults, "Ablation A5: SE server-task policy",
        k_sweep_flags);

    const auto csv = open_bench_csv(
        opts, {"variant", "blocking_us", "worst_us", "miss_ratio"});

    std::printf("Ablation A5: SE server-task policy "
                "(16 clients, utilization 70-90%%)\n\n");

    struct variant {
        const char* name;
        core::server_policy policy;
        bool work_conserving;
    };
    const variant variants[] = {
        {"GEDF + work-conserving (paper)", core::server_policy::gedf, true},
        {"GEDF, strict budgets", core::server_policy::gedf, false},
        {"fixed-priority + work-conserving",
         core::server_policy::fixed_priority, true},
        {"fixed-priority, strict budgets",
         core::server_policy::fixed_priority, false},
    };

    stats::table t({"variant", "blocking lat (us)", "worst (us)",
                    "miss ratio"});
    scenario s;
    s.trials = opts.trials;
    s.measure_cycles = opts.measure_cycles;
    s.seed = opts.seed;
    s.threads = opts.threads;
    s.seeding = client_seeding::fig6_xor;
    for (const auto& v : variants) {
        core::se_params se;
        se.policy = v.policy;
        se.work_conserving = v.work_conserving;
        s.bluescale_se = se;
        const sweep_result r =
            run_bench_sweep(opts, ic_kind::bluescale, s,
                            v.policy == core::server_policy::gedf &&
                                v.work_conserving);
        add_bench_csv_row(csv.get(), {v.name}, r.totals,
                          {"blocking_us", "worst_blocking_us",
                           "miss_ratio"});
        t.add_row({v.name,
                   stats::table::num(r.series("blocking_us").mean(), 3),
                   stats::table::num(r.series("worst_blocking_us").mean(), 2),
                   stats::table::pct(r.series("miss_ratio").mean(), 2)});
    }
    t.print();
    return 0;
}
