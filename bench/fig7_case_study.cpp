// Reproduces Fig. 7: system-level case study. 16/64 processors + 2 DNN
// HAs execute 10 automotive safety tasks + 10 automotive function tasks
// with interference tasks raising each processor to a target utilization;
// reports the success ratio (trials without any app deadline miss) per
// design across the utilization sweep.
//
//   $ ./bench/fig7_case_study [--trials N] [--cycles N] [--threads N]
//                             [--seed N] [--csv out.csv]
#include <cstdio>

#include "harness/bench_cli.hpp"
#include "harness/fig7_experiment.hpp"
#include "stats/table.hpp"

using namespace bluescale;
using namespace bluescale::harness;

namespace {

void run_scale(std::uint32_t n_processors, const bench_options& opts,
               stats::csv_writer* csv) {
    fig7_config cfg;
    cfg.n_processors = n_processors;
    cfg.trials = opts.trials;
    cfg.measure_cycles = opts.measure_cycles;
    cfg.seed = opts.seed;
    cfg.threads = opts.threads;

    std::printf("\n=== Fig. 7(%c): %u-core system + %u DNN HAs, %u trials "
                "x %llu cycles per point ===\n",
                n_processors == 16 ? 'a' : 'b', n_processors,
                cfg.n_accelerators, cfg.trials,
                static_cast<unsigned long long>(cfg.measure_cycles));

    const auto all = run_fig7_all(cfg);

    std::vector<std::string> headers{"design"};
    for (const auto& p : all.front().points) {
        headers.push_back(stats::table::num(p.target_utilization, 2));
    }
    stats::table t(std::move(headers));
    for (const auto& r : all) {
        std::vector<std::string> row{kind_name(r.kind)};
        for (const auto& p : r.points) {
            row.push_back(stats::table::num(p.success_ratio, 2));
            if (csv != nullptr) {
                csv->add_row({std::to_string(n_processors),
                              kind_name(r.kind),
                              std::to_string(p.target_utilization),
                              std::to_string(p.success_ratio),
                              std::to_string(p.app_miss_ratio)});
            }
        }
        t.add_row(std::move(row));
    }
    std::printf("success ratio vs target utilization:\n");
    t.print();
}

} // namespace

int main(int argc, char** argv) {
    bench_options defaults;
    defaults.trials = 8;
    defaults.measure_cycles = 60'000;
    const auto opts = parse_bench_cli(
        argc, argv, defaults,
        "Fig. 7 reproduction: case-study success ratio",
        flag_trials | flag_cycles | flag_threads | flag_seed | flag_csv |
            flag_lockstep);

    const auto csv = open_bench_csv(
        opts, {"processors", "design", "target_utilization",
               "success_ratio", "app_miss_ratio"});

    std::printf("Fig. 7 reproduction: case-study success ratio, "
                "six interconnects\n");
    run_scale(16, opts, csv.get());
    run_scale(64, opts, csv.get());
    return 0;
}
