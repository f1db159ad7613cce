// Reproduces Fig. 6: interconnect-level real-time performance under
// synthetic workloads. 16 and 64 traffic generators issue randomly
// generated periodic workloads (70-90% interconnect utilization, GEDF
// request priorities); for each of the six designs the harness reports
// blocking latency and deadline miss ratio, with cross-trial variance.
//
//   $ ./bench/fig6_synthetic [--trials N] [--cycles N] [--threads N]
//                            [--seed N] [--csv out.csv]
//                            [--metrics out.csv] [--trace out.json]
//
// --csv dumps one row per (scale, design) with the raw aggregates for
// plotting; the file is byte-identical for any --threads setting.
// --metrics dumps the BlueScale design's merged obs::registry snapshot
// and --trace its trial-0 event trace (.json = chrome://tracing), both
// at the 16-generator scale; the metrics file is likewise byte-identical
// for any --threads setting.
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

void run_scale(std::uint32_t n_clients, const bench_options& opts,
               stats::csv_writer* csv, bool export_obs) {
    scenario s;
    s.workload.n_clients = n_clients;
    s.trials = opts.trials;
    s.measure_cycles = opts.measure_cycles;
    s.seed = opts.seed;
    s.threads = opts.threads;
    s.seeding = client_seeding::fig6_xor;
    s.metrics_before_finalize = true;
    s.profile = opts.profile;

    std::printf("\n=== Fig. 6(%c): %u traffic generators, %u trials, "
                "%llu cycles/trial, utilization 70-90%% ===\n",
                n_clients == 16 ? 'a' : 'b', n_clients, s.trials,
                static_cast<unsigned long long>(s.measure_cycles));

    stats::table t({"design", "blocking lat (us)", "+/- sd", "worst (us)",
                    "miss ratio", "+/- sd", "sys clk (MHz)"});
    stats::table prof_t({"design", "sim Mcyc/s", "sim wall (s)",
                         "sweep wall (s)"});
    for (ic_kind kind : k_all_kinds) {
        const sweep_result r = run_bench_sweep(
            opts, kind, s, export_obs && kind == ic_kind::bluescale);
        const auto& blocking = r.series("blocking_us");
        const auto& miss = r.series("miss_ratio");
        const double clock_mhz =
            hwcost::system_clock_mhz(to_design(kind), n_clients);
        t.add_row({kind_name(kind), stats::table::num(blocking.mean(), 3),
                   stats::table::num(blocking.stddev(), 3),
                   stats::table::num(r.series("worst_blocking_us").mean(), 2),
                   stats::table::pct(miss.mean(), 2),
                   stats::table::pct(miss.stddev(), 2),
                   stats::table::num(clock_mhz, 0)});
        if (csv != nullptr) {
            std::vector<std::string> row{std::to_string(n_clients),
                                         kind_name(kind)};
            for (auto& cell : obs::metric_cells(
                     r.totals, {"blocking_us", "blocking_us:sd",
                                "worst_blocking_us", "miss_ratio",
                                "miss_ratio:sd"})) {
                row.push_back(std::move(cell));
            }
            row.push_back(std::to_string(clock_mhz));
            csv->add_row(row);
        }
        if (opts.profile) {
            const auto count = [&r](const char* name) {
                const obs::metric_value* v = r.profile.find(name);
                return v == nullptr ? 0.0 : static_cast<double>(v->count);
            };
            const double sim_s = count("profile/sim/wall_ns") * 1e-9;
            const double mcyc = count("profile/sim/cycles") * 1e-6;
            prof_t.add_row(
                {kind_name(kind),
                 stats::table::num(sim_s == 0.0 ? 0.0 : mcyc / sim_s, 2),
                 stats::table::num(sim_s, 2),
                 stats::table::num(count("profile/sweep/wall_ns") * 1e-9,
                                   2)});
        }
    }
    t.print();
    if (opts.profile) {
        std::printf("\nsimulator profile (wall clock, nondeterministic; "
                    "see obs::k_metric_profile):\n");
        prof_t.print();
    }
}

} // namespace

int main(int argc, char** argv) {
    bench_options defaults;
    defaults.trials = 10;
    defaults.measure_cycles = 100'000;
    const auto opts = parse_bench_cli(
        argc, argv, defaults,
        "Fig. 6 reproduction: blocking latency and deadline miss ratio",
        k_sweep_flags | flag_profile);

    const auto csv = open_bench_csv(
        opts, {"clients", "design", "blocking_us", "blocking_sd",
               "worst_us", "miss_ratio", "miss_sd", "sys_clk_mhz"});

    std::printf("Fig. 6 reproduction: blocking latency and deadline miss "
                "ratio, six interconnects\n");
    run_scale(16, opts, csv.get(), /*export_obs=*/true);
    run_scale(64, opts, csv.get(), /*export_obs=*/false);
    return 0;
}
