// Acceptance-ratio study (extension experiment A8 in DESIGN.md): the
// schedulability-region view of the interface selection. For random
// systems at each total utilization, reports the fraction whose
// whole-tree selection is feasible, against the U <= 1 bound an ideal
// centralized EDF scheduler would accept. The gap is the price of
// hierarchical composition plus integer (Pi, Theta) quantization.
//
// A second sweep scales every task period by k (finer relative time
// granularity): the quantization overhead shrinks as 1/k, recovering most
// of the region -- evidence that the 64-client infeasibility seen in
// wcrt_validation is a granularity artifact, not a structural limit.
//
//   $ ./bench/acceptance_ratio [--trials N] [--threads N]
#include <cstdio>

#include "analysis/tree_analysis.hpp"
#include "harness/bench_cli.hpp"
#include "sim/rng.hpp"
#include "sim/trial_runner.hpp"
#include "stats/table.hpp"
#include "workload/taskset_gen.hpp"

using namespace bluescale;

namespace {

struct selection_outcome {
    bool accepted = false;
    double root_bandwidth = 0.0;
};

double acceptance(const sim::trial_runner& runner, std::uint32_t n_clients,
                  double utilization, std::uint32_t trials,
                  std::uint64_t period_scale, double* mean_root_bw = nullptr,
                  double bandwidth_tolerance = 0.0) {
    // The per-trial seed is a pure function of the trial counter, so the
    // sweep parallelizes without changing any outcome.
    const auto outcomes = runner.run(trials, [&](std::uint32_t t) {
        rng gen(9000 + t * 131 + n_clients);
        workload::taskset_params params;
        params.min_period_units = 40 * period_scale;
        params.max_period_units = 600 * period_scale;
        auto sets = workload::make_client_tasksets(
            gen, n_clients, utilization, utilization, params);
        std::vector<analysis::task_set> rt;
        for (const auto& s : sets) {
            rt.push_back(workload::to_rt_tasks(s));
        }
        analysis::analysis_context ctx;
        ctx.bandwidth_tolerance = bandwidth_tolerance;
        const auto sel = analysis::select_tree_interfaces(rt, ctx);
        return selection_outcome{sel.feasible, sel.root_bandwidth};
    });

    std::uint32_t accepted = 0;
    double bw_sum = 0.0;
    for (const auto& o : outcomes) {
        if (!o.accepted) continue;
        ++accepted;
        bw_sum += o.root_bandwidth;
    }
    if (mean_root_bw != nullptr) {
        *mean_root_bw = accepted ? bw_sum / accepted : 0.0;
    }
    return static_cast<double>(accepted) / trials;
}

} // namespace

int main(int argc, char** argv) {
    harness::bench_options defaults;
    defaults.trials = 20;
    const auto opts = harness::parse_bench_cli(
        argc, argv, defaults,
        "Acceptance ratio of the whole-tree interface selection",
        harness::flag_trials | harness::flag_threads);
    const sim::trial_runner runner(opts.threads);

    std::printf("Acceptance ratio of the whole-tree interface selection "
                "(vs the centralized-EDF U<=1 bound)\n\n");

    stats::table t({"total U", "16 clients", "root bw (16)", "64 clients",
                    "root bw (64)", "centralized EDF"});
    for (double u = 0.5; u <= 0.95 + 1e-9; u += 0.1) {
        double bw16 = 0, bw64 = 0;
        const double a16 = acceptance(runner, 16, u, opts.trials, 1, &bw16);
        const double a64 = acceptance(runner, 64, u, opts.trials, 1, &bw64);
        t.add_row({stats::table::num(u, 2), stats::table::pct(a16, 0),
                   stats::table::num(bw16, 3), stats::table::pct(a64, 0),
                   stats::table::num(bw64, 3),
                   u <= 1.0 ? "100%" : "0%"});
    }
    t.print();

    std::printf("\nSelection-strategy extension at 64 clients: strict "
                "minimum-bandwidth selection (the paper's algorithm)\n"
                "prefers tiny periods, whose server tasks force each "
                "parent level to overprovision (~7-10%%/level).\n"
                "Trading a small bandwidth tolerance for larger periods "
                "recovers schedulable region:\n");
    stats::table q({"bw tolerance", "accept @U=0.70", "accept @U=0.80",
                    "root bw @U=0.70"});
    for (double tol : {0.0, 0.05, 0.10, 0.25}) {
        double bw70 = 0, unused = 0;
        const double a70 =
            acceptance(runner, 64, 0.70, opts.trials, 1, &bw70, tol);
        const double a80 =
            acceptance(runner, 64, 0.80, opts.trials, 1, &unused, tol);
        q.add_row({stats::table::pct(tol, 0), stats::table::pct(a70, 0),
                   stats::table::pct(a80, 0),
                   stats::table::num(bw70, 3)});
    }
    q.print();
    return 0;
}
