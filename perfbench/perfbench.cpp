// End-to-end benchmark driver for the BlueScale reproduction.
//
// Runs one named workload against the repo's libraries for a fixed wall
// time, checks its outputs, and prints one JSON result line (the last
// line of stdout). The workloads, the metrics and the layer each metric
// belongs to are described in perfbench/README.md.
//
//   bluescale_perfbench --workload NAME [--seed N] [--seconds S]
//                       [--trace 0|1] [--threads N] [--quick]
//
// A run repeats one deterministic unit of work (a "pass") while the next
// one is predicted to end within the time, and at least twice. Every
// pass of a run must reproduce the first pass's output digest and
// modelled metrics bit-for-bit; a mismatch, a broken accounting invariant
// or an unexpected admission verdict counts as a failed operation. Each
// operation's cost is its fastest time over the untraced passes, which
// rotate over the CPUs. With --trace 1 untraced and traced passes
// alternate: the per-layer split comes from the traced passes (simulator
// profiling on, analysis work counters attached, the constructor's
// selection re-run to split it from assembly), the end-to-end numbers
// only ever from untraced ones.
//
// Layers are timed from outside, around calls into their public
// functions; no library code is instrumented for the benchmark.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/selection_cache.hpp"
#include "analysis/tree_analysis.hpp"
#include "harness/testbench.hpp"
#include "obs/profile.hpp"
#include "sim/rng.hpp"
#include "sim/trial_runner.hpp"
#include "stats/summary.hpp"
#include "workload/taskset_gen.hpp"
#include "workload/traffic_generator.hpp"

using namespace bluescale;

namespace {

// ---------------------------------------------------------------------
// Small helpers

std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

double median(std::vector<double> xs) {
    if (xs.empty()) return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Pins the calling thread to one CPU of the process's initial affinity
/// mask, chosen round-robin by `turn`; a negative turn restores the whole
/// mask. Passes rotate over the CPUs: on a shared host one virtual CPU
/// can run slow for a whole run while the others do not, and the
/// best-of-N estimate then sees every CPU.
void pin_to_cpu(int turn) {
    static const cpu_set_t initial = [] {
        cpu_set_t set;
        CPU_ZERO(&set);
        sched_getaffinity(0, sizeof set, &set);
        return set;
    }();
    cpu_set_t set = initial;
    const int n = CPU_COUNT(&initial);
    if (turn >= 0 && n > 1) {
        int want = turn % n;
        CPU_ZERO(&set);
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &initial) && want-- == 0) {
                CPU_SET(cpu, &set);
                break;
            }
        }
    }
    sched_setaffinity(0, sizeof set, &set);
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/// Ordered name -> value map of one pass's per-layer or modelled figures.
using figures = std::map<std::string, double>;

/// One pass: a fixed, seeded unit of work. Everything except the timings
/// and `layers` is deterministic and must repeat exactly.
struct pass_result {
    double setup_s = 0.0;       ///< set-up wall time
    double work_s = 0.0;        ///< wall time of the measured operations
    std::vector<double> op_ms;  ///< wall latency of each operation
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;   ///< failed operations and broken checks
    std::uint64_t digest = 0;   ///< digest of the deterministic outputs
    figures model;              ///< modelled (simulated) metrics
    figures layers;             ///< traced passes only
};

// ---------------------------------------------------------------------
// Simulator workloads: BlueScale with traffic generators (Fig. 6 setup)

struct sim_workload {
    std::uint32_t n_clients = 64;
    double util_lo = 0.70;
    double util_hi = 0.90;
    std::uint32_t trials = 10;      ///< trials per pass
    cycle_t cycles = 100'000;       ///< simulated cycles per trial
};

/// Host time is sampled once per slice of this many simulated cycles:
/// one operation of a simulator workload.
constexpr cycle_t k_slice_cycles = 1000;
/// SE levels with per-level figures: a depth-4 tree has levels 0..3.
constexpr std::uint32_t k_report_levels = 4;
/// Traced trials time the constructor's selection re-run and a spare
/// construction this many times each (see run_sim_trial). Assembly is a
/// few percent of the constructor on deep-light-256, less than the host
/// noise on one timing of either.
constexpr int k_split_reps = 3;

struct trial_out {
    double gen_s = 0.0;
    double ctor_s = 0.0;   ///< traced: best of k_split_reps + 1 constructions
    double register_s = 0.0;
    double select_s = 0.0; ///< traced: best of k_split_reps selection re-runs
    double run_s = 0.0;
    std::vector<double> slice_ms;
    obs::snapshot snap;    ///< deterministic registry export
    obs::snapshot prof;    ///< traced: profile-flagged metrics
    analysis::sched_test_stats work; ///< traced: the re-run's counters
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    std::uint64_t abandoned = 0;
    std::uint64_t broken = 0; ///< accounting violations + failed responses
    std::uint64_t missed = 0;
    std::uint64_t accounted = 0;
    stats::sample_set blocking;
    bool feasible = false;
    double root_bw = 0.0;
};

trial_out run_sim_trial(const sim_workload& w, double total_util,
                        std::uint64_t trial_seed, bool traced) {
    trial_out out;
    workload::taskset_params params; // Fig. 6: 4 tasks, 40-600 units, 0.3 W
    params.n_tasks = 4;
    params.min_period_units = 40;
    params.max_period_units = 600;
    params.write_fraction = 0.3;

    obs::stopwatch sw;
    rng workload_rng(trial_seed);
    const auto tasksets = workload::make_client_tasksets(
        workload_rng, w.n_clients, total_util, total_util, params);
    harness::testbench_options opts;
    opts.n_clients = w.n_clients;
    std::vector<analysis::task_set> rt_sets;
    rt_sets.reserve(tasksets.size());
    for (const auto& ts : tasksets) {
        opts.client_utilizations.push_back(workload::utilization(ts));
        rt_sets.push_back(workload::to_rt_tasks(ts));
    }
    opts.rt_sets = &rt_sets;
    out.gen_s = sw.seconds();

    // Traced: the constructor's selection is re-run on the same inputs
    // with the same default context, to split selection from assembly
    // inside the constructor. Re-runs and spare constructions alternate
    // before the measured testbench exists, so each starts from the same
    // heap, and the split is best against best. Work counters are attached
    // to the first re-run only.
    bool again_feasible = false;
    double again_root_bw = 0.0;
    for (int k = 0; traced && k < k_split_reps; ++k) {
        analysis::analysis_context ctx = opts.selection;
        if (k == 0) ctx.sched.stats = &out.work;
        sw.restart();
        auto again = std::make_unique<analysis::tree_selection>(
            analysis::select_tree_interfaces(rt_sets, ctx));
        const double select_s = sw.seconds();
        again_feasible = again->feasible;
        again_root_bw = again->root_bandwidth;
        again.reset();
        sw.restart();
        auto spare = std::make_unique<harness::testbench>(
            harness::ic_kind::bluescale, opts);
        const double ctor_s = sw.seconds();
        spare.reset();
        out.select_s = k == 0 ? select_s : std::min(out.select_s, select_s);
        out.ctor_s = k == 0 ? ctor_s : std::min(out.ctor_s, ctor_s);
    }

    sw.restart();
    harness::testbench tb(harness::ic_kind::bluescale, opts);
    const double ctor_s = sw.seconds();
    out.ctor_s = traced ? std::min(out.ctor_s, ctor_s) : ctor_s;

    sw.restart();
    std::vector<std::unique_ptr<workload::traffic_generator>> clients;
    clients.reserve(w.n_clients);
    workload::traffic_gen_config tg_cfg;
    tg_cfg.unit_cycles = tb.unit_cycles();
    for (std::uint32_t c = 0; c < w.n_clients; ++c) {
        clients.push_back(std::make_unique<workload::traffic_generator>(
            c, tasksets[c], tb.ic(),
            trial_seed ^ (0x5851f42d4c957f2dull + c), tg_cfg));
        auto* client = clients.back().get();
        client->bind_observability(tb.metrics());
        tb.add_client(c, *client, [client](mem_request&& r) {
            client->on_response(std::move(r));
        });
    }
    out.register_s = sw.seconds();

    if (traced) {
        if (again_feasible != tb.selection_feasible() ||
            again_root_bw != tb.selection().root_bandwidth) {
            ++out.broken;
        }
        tb.sim().enable_profiling(tb.metrics());
    }

    out.slice_ms.reserve(static_cast<std::size_t>(w.cycles / k_slice_cycles));
    for (cycle_t done = 0; done < w.cycles; done += k_slice_cycles) {
        sw.restart();
        tb.run(std::min(k_slice_cycles, w.cycles - done));
        const double s = sw.seconds();
        out.run_s += s;
        out.slice_ms.push_back(s * 1e3);
    }

    out.feasible = tb.selection_feasible();
    out.root_bw = tb.selection().root_bandwidth;
    out.snap = tb.metrics().take_snapshot();
    if (traced) out.prof = tb.metrics().take_snapshot(true).profile_only();
    for (auto& c : clients) {
        const auto& s = c->stats();
        // Every issued request is completed, abandoned or still in flight.
        if (s.issued() != s.completed() + s.abandoned() + c->outstanding()) {
            ++out.broken;
        }
        out.issued += s.issued();
        out.completed += s.completed();
        out.abandoned += s.abandoned();
        out.broken += s.failed_responses();
    }
    for (auto& c : clients) {
        // As Fig. 6 does: unfinished requests past their deadline at the
        // end of the window count as missed.
        c->finalize(tb.now());
        const auto& s = c->stats();
        out.blocking.merge(s.blocking_cycles());
        out.missed += s.missed();
        out.accounted += s.completed() + s.abandoned();
    }
    return out;
}

/// Per-level aggregates over the merged registry's "se.<l>.<o>/..."
/// metrics.
void add_level_figures(const obs::snapshot& snap, figures& f) {
    struct level {
        double forwarded = 0.0;
        double budgeted = 0.0;
        double backlogged = 0.0;
        stats::sample_set wait;
    };
    std::vector<level> levels(k_report_levels);
    for (const auto& [name, v] : snap.entries()) {
        if (name.rfind("se.", 0) != 0) continue;
        const auto dot = name.find('.', 3);
        const auto slash = name.find('/');
        if (dot == std::string::npos || slash == std::string::npos) continue;
        const auto l = static_cast<std::uint32_t>(
            std::strtoul(name.substr(3, dot - 3).c_str(), nullptr, 10));
        if (l >= k_report_levels) continue;
        const std::string_view rest = std::string_view(name).substr(slash + 1);
        auto& lv = levels[l];
        if (rest == "forwarded") {
            lv.forwarded += static_cast<double>(v.count);
        } else if (rest == "forwarded_budgeted") {
            lv.budgeted += static_cast<double>(v.count);
        } else if (rest == "wait_cycles") {
            lv.wait.merge(v.samples);
        } else if (rest.rfind("port", 0) == 0 &&
                   rest.ends_with("/backlogged_cycles")) {
            lv.backlogged += static_cast<double>(v.count);
        }
    }
    for (std::uint32_t l = 0; l < k_report_levels; ++l) {
        const std::string p = "core.l" + std::to_string(l) + ".";
        f[p + "forwarded"] = levels[l].forwarded;
        f[p + "budgeted_ratio"] =
            ratio(levels[l].budgeted, levels[l].forwarded);
        f[p + "wait_p50_cycles"] = levels[l].wait.percentile(50.0);
        f[p + "wait_p99_cycles"] = levels[l].wait.percentile(99.0);
        f[p + "backlogged_cycles"] = levels[l].backlogged;
    }
}

void add_analysis_counters(const analysis::sched_test_stats& w, figures& f) {
    const auto d = [](std::uint64_t x) { return static_cast<double>(x); };
    f["analysis.tests_run"] += d(w.tests_run);
    f["analysis.points_checked"] += d(w.points_checked);
    f["analysis.cheap_decided"] += d(w.ladder_cheap_decided);
    f["analysis.exact_fallbacks"] += d(w.ladder_exact_fallbacks);
    f["analysis.cache_hits"] += d(w.cache_hits);
    f["analysis.cache_misses"] += d(w.cache_misses);
}

void finish_analysis_ratios(figures& f) {
    f["analysis.cheap_decided_ratio"] =
        ratio(f["analysis.cheap_decided"],
              f["analysis.cheap_decided"] + f["analysis.exact_fallbacks"]);
    f["analysis.cache_hit_ratio"] =
        ratio(f["analysis.cache_hits"],
              f["analysis.cache_hits"] + f["analysis.cache_misses"]);
}

pass_result run_sim_pass(const sim_workload& w, std::uint64_t seed,
                         unsigned threads, bool traced, int turn) {
    sim::trial_runner runner(threads);
    if (threads == 1) pin_to_cpu(turn);
    // Trial t's inputs depend only on (seed, t); the runner returns the
    // trials in index order, so everything merged below is identical for
    // any thread count.
    auto trials = runner.run(w.trials, [&](std::uint32_t t) {
        // Stratified draw: trial t's total utilization is uniform within
        // the t-th of `trials` equal strata of [util_lo, util_hi], so
        // every pass spans the range evenly whatever the seed.
        rng strata(substream(seed, w.trials + t));
        const double u =
            w.util_lo + (w.util_hi - w.util_lo) *
                            (t + strata.uniform_unit()) / w.trials;
        return run_sim_trial(w, u, substream(seed, t), traced);
    });
    pin_to_cpu(-1);

    pass_result r;
    obs::snapshot merged;
    stats::sample_set blocking;
    std::uint64_t missed = 0, accounted = 0, feasible = 0;
    double root_bw = 0.0;
    figures& f = r.layers;
    for (auto& t : trials) {
        r.setup_s += t.gen_s + t.ctor_s + t.register_s;
        r.work_s += t.run_s;
        r.op_ms.insert(r.op_ms.end(), t.slice_ms.begin(), t.slice_ms.end());
        r.attempted += t.issued;
        r.failed += t.abandoned + t.broken;
        merged.merge(t.snap);
        blocking.merge(t.blocking);
        missed += t.missed;
        accounted += t.accounted;
        feasible += t.feasible ? 1 : 0;
        root_bw += t.root_bw;
        if (!traced) continue;
        f["workload.gen_s"] += t.gen_s;
        f["harness.select_s"] += t.select_s;
        f["harness.assemble_s"] += t.ctor_s - t.select_s + t.register_s;
        f["analysis.select_tree_s"] += t.select_s;
        add_analysis_counters(t.work, f);
        double fabric_ns = 0.0, mem_ns = 0.0, clients_ns = 0.0;
        for (const auto& [name, v] : t.prof.entries()) {
            const auto ns = static_cast<double>(v.count);
            if (name == "profile/sim/cycles") {
                f["sim.stepped_cycles"] += ns;
            } else if (name.rfind("profile/sim/", 0) == 0) {
                continue;
            } else if (name.rfind("profile/traffic_gen_", 0) == 0) {
                clients_ns += ns;
            } else if (name == "profile/memory_controller/tick_ns") {
                mem_ns += ns;
            } else {
                fabric_ns += ns; // the BlueScale fabric: the only other one
            }
        }
        f["core.fabric_tick_s"] += fabric_ns * 1e-9;
        f["mem.tick_s"] += mem_ns * 1e-9;
        f["workload.clients_tick_s"] += clients_ns * 1e-9;
        f["sim.engine_s"] +=
            t.run_s - (fabric_ns + mem_ns + clients_ns) * 1e-9;
        f["workload.issued"] += static_cast<double>(t.issued);
        f["workload.completed"] += static_cast<double>(t.completed);
        f["workload.abandoned"] += static_cast<double>(t.abandoned);
    }

    std::ostringstream csv;
    merged.write_csv(csv);
    r.digest = fnv1a(csv.str());
    const double n = static_cast<double>(w.trials);
    r.model["miss_ratio"] = ratio(static_cast<double>(missed),
                                  static_cast<double>(accounted));
    r.model["blocking_p50_cycles"] = blocking.percentile(50.0);
    r.model["blocking_p99_cycles"] = blocking.percentile(99.0);
    r.model["feasible_ratio"] = static_cast<double>(feasible) / n;
    r.model["root_bw"] = root_bw / n;

    if (traced) {
        const double requested = n * static_cast<double>(w.cycles);
        f["sim.skip_ratio"] = 1.0 - f["sim.stepped_cycles"] / requested;
        f["core.fabric_ns_per_stepped_cycle"] =
            ratio(f["core.fabric_tick_s"] * 1e9, f["sim.stepped_cycles"]);
        if (const auto* s = merged.find("mem/serviced")) {
            f["mem.serviced"] = static_cast<double>(s->count);
        }
        f["mem.ns_per_serviced"] =
            ratio(f["mem.tick_s"] * 1e9, f["mem.serviced"]);
        add_level_figures(merged, f);
        finish_analysis_ratios(f);
    }
    return r;
}

// ---------------------------------------------------------------------
// Admission workload: whole-tree build, then a closed loop of client
// updates (analysis only, no simulator)

// Megascale's depth-4 profile: wcet-4 single-task clients drawn
// round-robin from a pool of 64 periods, total utilization ~0.15.
constexpr std::uint32_t k_adm_clients = 256;
constexpr std::uint64_t k_adm_wcet = 4;
constexpr double k_adm_u = 0.15;
constexpr std::uint32_t k_adm_pool = 64;
constexpr std::uint64_t k_adm_max_period = 1u << 26;
/// Timed whole-tree builds per admission pass (see run_admission_pass).
constexpr int k_build_reps = 3;

analysis::rt_task pool_task(std::uint32_t profile) {
    const double base = static_cast<double>(k_adm_wcet) *
                        static_cast<double>(k_adm_clients) / k_adm_u;
    const double stretch =
        1.0 + static_cast<double>(profile % k_adm_pool) / k_adm_pool;
    return {static_cast<std::uint64_t>(base * stretch), k_adm_wcet};
}

enum class update_kind : std::uint8_t { swap, join, overload };

struct client_req {
    std::uint32_t client = 0;
    update_kind kind = update_kind::swap;
    analysis::task_set tasks;
};

struct admission_workload {
    /// Stream length per pass. Short passes give each update's best-of-N
    /// more runs in the time, and keep peak memory independent of the
    /// seed: at 1000 updates some orders reach an update whose exact test
    /// holds about 7 MB more.
    std::uint32_t updates = 250;
    unsigned build_threads = 4;
};

/// The update stream. Its population is drawn once, from a fixed
/// generator, so every seed submits the same multiset of requests; --seed
/// draws the order. Update costs are heavy-tailed, so a seeded population
/// would move p99 with the seed more than any code change of interest.
///
/// The mix repeats every 6 updates: 4 swaps to another pool profile, 1
/// join (the client's own profile plus a second task) and 1 overload.
/// Swaps and joins keep the ratio of sim::reconfig_schedule_config's
/// default weights: scale_up 1 + scale_down 1 (over all clients a swap
/// goes to a heavier or a lighter profile with equal odds) to join 0.5. Its leave action
/// has no counterpart here. The overload share, one per five other
/// updates, is the benchmark's own choice: an overload asks for the whole
/// memory bandwidth (utilization 1 on top of everyone else's load), which
/// no selection can admit.
std::vector<client_req> make_stream(std::uint64_t seed, std::uint32_t n) {
    rng population(0x626c75657363616cull);
    std::vector<client_req> out(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        auto& req = out[i];
        req.client = static_cast<std::uint32_t>(population.pick(k_adm_clients));
        const std::uint32_t own = req.client % k_adm_pool;
        const auto other = static_cast<std::uint32_t>(
            (own + 1 + population.pick(k_adm_pool - 1)) % k_adm_pool);
        const std::uint32_t slot = i % 6;
        if (slot < 4) {
            req.kind = update_kind::swap;
            req.tasks = {pool_task(other)};
        } else if (slot == 4) {
            req.kind = update_kind::join;
            req.tasks = {pool_task(own), pool_task(other)};
        } else {
            req.kind = update_kind::overload;
            const std::uint64_t p = pool_task(other).period;
            req.tasks = {{p, p}};
        }
    }
    rng order(substream(seed, 0));
    for (std::size_t i = out.size(); i > 1; --i) {
        std::swap(out[i - 1], out[order.pick(i)]);
    }
    return out;
}

/// Canonical bytes of everything a selection decides.
std::string canonical(const analysis::tree_selection& sel) {
    std::string out = sel.feasible ? "feasible;" : "infeasible;";
    out += sel.failure.to_string();
    char bw[64];
    std::snprintf(bw, sizeof bw, ";root=%a;", sel.root_bandwidth);
    out += bw;
    for (const auto& level : sel.levels) {
        for (const auto& se : level) {
            for (const auto& port : se.ports) {
                if (port) {
                    out += std::to_string(port->period) + '/' +
                           std::to_string(port->budget);
                } else {
                    out += '-';
                }
                out += ';';
            }
        }
    }
    return out;
}

analysis::analysis_context megascale_context(analysis::selection_cache* cache,
                                             unsigned threads,
                                             analysis::sched_test_stats* st) {
    analysis::analysis_context ctx;
    ctx.max_period = k_adm_max_period;
    ctx.sched.cheap_first = true;
    ctx.cache = cache;
    ctx.threads = threads;
    ctx.sched.stats = st;
    return ctx;
}

pass_result run_admission_pass(const admission_workload& w,
                               std::uint64_t seed, bool traced, int turn) {
    pass_result r;
    figures& f = r.layers;
    obs::stopwatch sw;
    std::vector<analysis::task_set> clients(k_adm_clients);
    for (std::uint32_t c = 0; c < k_adm_clients; ++c) {
        clients[c] = {pool_task(c % k_adm_pool)};
    }
    const auto initial = clients;
    const auto stream = make_stream(seed, w.updates);
    const double gen_s = sw.seconds();

    // The threaded build is timed k_build_reps times, each from an empty
    // cache, and the pass keeps its fastest: on a shared host other
    // tenants' load often stalls one of its threads, most of all in the
    // first seconds of a process and after the single-threaded stream.
    // The last build's tree and cache serve the stream.
    std::unique_ptr<analysis::selection_cache> cache;
    analysis::tree_selection sel;
    analysis::sched_test_stats build_work, stream_work;
    for (int k = 0; k < k_build_reps; ++k) {
        cache = std::make_unique<analysis::selection_cache>();
        sw.restart();
        sel = analysis::select_tree_interfaces(
            clients,
            megascale_context(cache.get(), w.build_threads,
                              traced && k == 0 ? &build_work : nullptr));
        const double build_s = sw.seconds();
        r.setup_s = k == 0 ? build_s : std::min(r.setup_s, build_s);
    }
    const bool build_feasible = sel.feasible;
    if (!build_feasible) ++r.failed;

    const auto ctx =
        megascale_context(cache.get(), 1, traced ? &stream_work : nullptr);
    analysis::sched_test_config check_cfg;
    check_cfg.cheap_first = true;
    std::string verdicts;
    verdicts.reserve(stream.size());
    // Pinned only now: threads inherit their creator's CPU mask, and the
    // build above runs on several.
    pin_to_cpu(turn);
    std::uint64_t commits = 0, ses_changed = 0;
    double eval_s = 0.0, apply_s = 0.0;
    r.op_ms.reserve(stream.size());
    for (const auto& req : stream) {
        sw.restart();
        auto upd = analysis::evaluate_client_update(sel, clients, req.client,
                                                    req.tasks, ctx);
        const double t_eval = sw.seconds();
        const bool commit = upd.selection.feasible;
        ses_changed += upd.ses_changed;
        sw.restart();
        if (commit) analysis::apply_client_update(std::move(upd), sel, clients);
        const double t_apply = sw.seconds();
        eval_s += t_eval;
        apply_s += t_apply;
        r.op_ms.push_back((t_eval + t_apply) * 1e3);
        ++r.attempted;
        verdicts += commit ? 'C' : 'R';

        // Expected verdicts, and the committed leaf port must schedule the
        // client's new tasks (checked outside the timed section).
        bool ok = commit ? req.kind != update_kind::overload
                         : req.kind != update_kind::swap;
        if (commit) {
            ++commits;
            const auto leaf = sel.shape.leaf_level;
            const auto& port = sel.port_interface(
                leaf, sel.shape.leaf_se_of_client(req.client),
                req.client % analysis::k_se_fanin);
            ok = ok && sel.root_bandwidth <= 1.0 && port.has_value() &&
                 analysis::is_schedulable(clients[req.client], *port,
                                          check_cfg) ==
                     analysis::sched_result::schedulable;
        }
        if (!ok) ++r.failed;
    }
    pin_to_cpu(-1);
    r.work_s = eval_s + apply_s;
    r.digest = fnv1a(verdicts, fnv1a(canonical(sel)));
    r.model["feasible_ratio"] = build_feasible ? 1.0 : 0.0;
    r.model["admit_accept_ratio"] = ratio(static_cast<double>(commits),
                                          static_cast<double>(r.attempted));
    r.model["root_bw"] = sel.root_bandwidth;

    if (traced) {
        // Misses a serial build of the same tree takes; the threaded
        // build's extra misses are siblings racing on one key.
        analysis::sched_test_stats serial_work;
        analysis::selection_cache serial_cache;
        (void)analysis::select_tree_interfaces(
            initial, megascale_context(&serial_cache, 1, &serial_work));
        f["analysis.dup_misses"] =
            static_cast<double>(build_work.cache_misses) -
            static_cast<double>(serial_work.cache_misses);
        f["workload.gen_s"] = gen_s;
        f["analysis.select_tree_s"] = r.setup_s;
        f["analysis.evaluate_s"] = eval_s;
        f["analysis.apply_s"] = apply_s;
        f["analysis.ses_changed"] = static_cast<double>(ses_changed);
        add_analysis_counters(build_work, f);
        add_analysis_counters(stream_work, f);
        finish_analysis_ratios(f);
    }
    return r;
}

// ---------------------------------------------------------------------
// Driver

/// Per-layer metrics, in the order BENCHMARK.json lists them. A workload
/// that bypasses a layer reports 0 for it.
std::vector<std::string> per_layer_names() {
    std::vector<std::string> names = {
        "workload.gen_s",        "harness.select_s",
        "harness.assemble_s",    "sim.stepped_cycles",
        "sim.skip_ratio",        "sim.engine_s",
        "core.fabric_tick_s",    "core.fabric_ns_per_stepped_cycle",
    };
    for (std::uint32_t l = 0; l < k_report_levels; ++l) {
        const std::string p = "core.l" + std::to_string(l) + ".";
        for (const char* m : {"forwarded", "budgeted_ratio",
                              "wait_p50_cycles", "wait_p99_cycles",
                              "backlogged_cycles"}) {
            names.push_back(p + m);
        }
    }
    for (const char* m :
         {"mem.tick_s", "mem.serviced", "mem.ns_per_serviced",
          "workload.clients_tick_s", "workload.issued",
          "workload.completed", "workload.abandoned",
          "analysis.select_tree_s", "analysis.evaluate_s",
          "analysis.apply_s", "analysis.tests_run",
          "analysis.points_checked", "analysis.cheap_decided",
          "analysis.exact_fallbacks", "analysis.cheap_decided_ratio",
          "analysis.cache_hits", "analysis.cache_misses",
          "analysis.cache_hit_ratio", "analysis.ses_changed",
          "analysis.dup_misses", "obs.trace_overhead_ratio", "op_p99_ms",
          "miss_ratio", "blocking_p50_cycles", "blocking_p99_cycles",
          "feasible_ratio", "admit_accept_ratio", "root_bw"}) {
        names.emplace_back(m);
    }
    return names;
}

const char* unit_of(const std::string& name) {
    if (name.ends_with("_s")) return "s";
    if (name.ends_with("_ms")) return "ms";
    if (name.ends_with("_cycles")) return "cycles";
    if (name.ends_with("_ns_per_stepped_cycle") ||
        name.ends_with("ns_per_serviced")) {
        return "ns";
    }
    if (name.ends_with("ratio") || name == "root_bw") return "ratio";
    return "count";
}

struct cli_options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    unsigned threads = 0; ///< 0 = the workload's default
    bool quick = false;
};

[[noreturn]] void usage(int code) {
    std::fprintf(code == 0 ? stdout : stderr,
                 "usage: bluescale_perfbench --workload "
                 "fig6-dense-64|deep-light-256|admission-d4 [--seed N] "
                 "[--seconds S] [--trace 0|1] [--threads N] [--quick]\n");
    std::exit(code);
}

cli_options parse_cli(int argc, char** argv) {
    cli_options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help") usage(0);
        if (a == "--quick") {
            o.quick = true;
            continue;
        }
        if (i + 1 >= argc) usage(2);
        const std::string v = argv[++i];
        char* end = nullptr;
        if (a == "--workload") {
            o.workload = v;
            continue;
        }
        if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
        } else {
            const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
            if (a == "--seed") {
                o.seed = n;
            } else if (a == "--trace" && n <= 1) {
                o.trace = n == 1;
            } else if (a == "--threads" && n <= 64) {
                o.threads = static_cast<unsigned>(n);
            } else {
                usage(2);
            }
        }
        if (end == v.c_str() || *end != '\0') usage(2);
    }
    if (o.workload.empty() || !(o.seconds > 0.0)) usage(2);
    return o;
}

} // namespace

int main(int argc, char** argv) {
    const cli_options cli = parse_cli(argc, argv);

    std::function<pass_result(bool, int)> pass;
    if (cli.workload == "fig6-dense-64" || cli.workload == "deep-light-256") {
        sim_workload w;
        if (cli.workload == "deep-light-256") {
            w.n_clients = 256;
            w.util_lo = 0.30;
            w.util_hi = 0.40;
            w.trials = 2;
            w.cycles = 600'000;
        }
        if (cli.quick) {
            w.trials = 4;
            w.cycles = 10'000;
        }
        const unsigned threads = cli.threads == 0 ? 1 : cli.threads;
        pass = [w, seed = cli.seed, threads](bool traced, int turn) {
            return run_sim_pass(w, seed, threads, traced, turn);
        };
    } else if (cli.workload == "admission-d4") {
        admission_workload w;
        w.build_threads =
            cli.threads != 0 ? cli.threads
                             : std::min(4u, sim::resolve_threads(0));
        if (cli.quick) w.updates = 40;
        pass = [w, seed = cli.seed](bool traced, int turn) {
            return run_admission_pass(w, seed, traced, turn);
        };
    } else {
        std::fprintf(stderr, "bluescale_perfbench: unknown workload '%s'\n",
                     cli.workload.c_str());
        usage(2);
    }

    // Passes repeat while the next one is predicted to end within the
    // time (at least two untraced ones, plus one traced one with --trace
    // 1; exactly that many with --quick).
    std::vector<pass_result> plain, traced;
    std::uint64_t attempted = 0, failed = 0;
    const obs::stopwatch wall;
    for (std::uint32_t i = 0;; ++i) {
        if (plain.size() >= 2 && (!cli.trace || !traced.empty())) {
            const double done = wall.seconds();
            if (cli.quick || done + done / i > cli.seconds) break;
        }
        const bool traced_pass = cli.trace && i % 2 == 1;
        // Each kind of pass rotates over every CPU on its own: with
        // alternating kinds, the pass index would put all untraced passes
        // on every other CPU and bias obs.trace_overhead_ratio.
        const auto turn = (traced_pass ? traced : plain).size();
        pass_result r = pass(traced_pass, static_cast<int>(turn));
        const pass_result& first = plain.empty() ? r : plain.front();
        if (r.digest != first.digest || r.model != first.model) ++r.failed;
        attempted += r.attempted;
        failed += r.failed;
        std::printf("# pass %u%s setup_s %.6f work_s %.6f ops %zu\n", i,
                    traced_pass ? " traced" : "", r.setup_s, r.work_s,
                    r.op_ms.size());
        (traced_pass ? traced : plain).push_back(std::move(r));
    }

    const pass_result& ref = plain.front();
    std::printf("# workload %s seed %" PRIu64 " passes %zu+%zu traced\n",
                cli.workload.c_str(), cli.seed, plain.size(), traced.size());
    std::printf("# digest %016" PRIx64 "\n", ref.digest);
    for (const auto& [name, v] : ref.model) {
        std::printf("# model %s %a %.9g\n", name.c_str(), v, v);
    }

    // Passes repeat the same operations, and host interference only ever
    // adds time, so each operation's cost is its fastest time over the
    // untraced passes (best-of-N, as timeit does). Set-up time is the
    // median over passes.
    const auto median_of = [](const std::vector<pass_result>& rs,
                              double (*f)(const pass_result&)) {
        std::vector<double> xs;
        for (const auto& r : rs) xs.push_back(f(r));
        return median(xs);
    };
    const auto pass_ops_per_s = [](const pass_result& r) {
        return static_cast<double>(r.op_ms.size()) / r.work_s;
    };
    std::vector<double> best = ref.op_ms;
    for (const auto& r : plain) {
        for (std::size_t j = 0; j < best.size(); ++j) {
            best[j] = std::min(best[j], r.op_ms[j]);
        }
    }
    stats::sample_set op_ms;
    for (const double x : best) op_ms.add(x);
    std::printf("# ops per pass %zu\n", best.size());
    // p99 is reported with the per-layer metrics, without a bound: on a
    // shared host it moved by more than any bound allows between two
    // sets of runs of the same code (see README.md).
    const double op_p99_ms = op_ms.percentile(99.0);
    std::printf("# %-36s %.9g ms\n", "op_p99_ms", op_p99_ms);

    std::vector<std::pair<std::string, std::pair<double, const char*>>> out;
    if (!cli.trace) {
        out.push_back({"setup_s",
                       {median_of(plain,
                                  [](const pass_result& r) { return r.setup_s; }),
                        "s"}});
        out.push_back({"ops_per_s",
                       {static_cast<double>(best.size()) * 1e3 / op_ms.sum(),
                        "1/s"}});
        out.push_back({"op_p50_ms", {op_ms.percentile(50.0), "ms"}});
        out.push_back({"peak_rss_mb", {peak_rss_mb(), "MB"}});
    } else {
        for (const auto& name : per_layer_names()) {
            double v = 0.0;
            if (name == "op_p99_ms") {
                v = op_p99_ms;
            } else if (name == "obs.trace_overhead_ratio") {
                v = median_of(traced, pass_ops_per_s) /
                    median_of(plain, pass_ops_per_s);
            } else if (ref.model.contains(name)) {
                v = ref.model.at(name);
            } else {
                std::vector<double> xs;
                for (const auto& r : traced) {
                    const auto it = r.layers.find(name);
                    xs.push_back(it == r.layers.end() ? 0.0 : it->second);
                }
                v = median(xs);
            }
            out.push_back({name, {v, unit_of(name)}});
        }
    }
    for (const auto& [name, vu] : out) {
        std::printf("# %-36s %.9g %s\n", name.c_str(), vu.first, vu.second);
    }

    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                failed == 0 ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < out.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", out[i].first.c_str(),
                    out[i].second.first, out[i].second.second);
    }
    std::printf("}}\n");
    return 0;
}
