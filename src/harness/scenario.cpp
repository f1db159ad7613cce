#include "harness/scenario.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "analysis/quadtree.hpp"
#include "core/bluescale_ic.hpp"
#include "harness/testbench.hpp"
#include "mem/maintenance_engine.hpp"
#include "sim/trial_runner.hpp"
#include "workload/traffic_generator.hpp"

namespace bluescale::harness {

namespace {

/// Budget for draining the service and the manager after the storm.
constexpr cycle_t k_drain_cycles = 50'000;
/// Client recovery under scenario::client_retry.
constexpr cycle_t k_retry_timeout_cycles = 2048;
constexpr std::uint32_t k_max_retries = 3;

/// Everything one trial hands back to the sweep.
struct trial_output {
    obs::snapshot totals;
    obs::snapshot metrics;   ///< when collect_metrics
    obs::trace_export trace; ///< when collect_trace, trial 0 only
    obs::snapshot profile;   ///< when profile
};

std::vector<workload::memory_task_set>
draw_tasksets(const workload_draw& w, std::uint64_t trial_seed) {
    rng r(trial_seed);
    const std::uint32_t n_be = std::min(w.best_effort_clients, w.n_clients);
    if (w.best_effort_util <= 0.0 || n_be == 0) {
        return workload::make_client_tasksets(r, w.n_clients, w.util_lo,
                                              w.util_hi, w.taskset);
    }
    auto sets = workload::make_client_tasksets(r, w.n_clients - n_be,
                                               w.util_lo, w.util_hi,
                                               w.taskset);
    auto be = workload::make_client_tasksets(
        r, n_be, w.best_effort_util, w.best_effort_util, w.taskset);
    sets.insert(sets.end(), std::make_move_iterator(be.begin()),
                std::make_move_iterator(be.end()));
    return sets;
}

/// The concrete task set one scheduled request asks for, a pure function
/// of (trial seed, event index): every design, thread count and engine
/// resolves the same request to the same demand.
workload::memory_task_set
derive_event_taskset(const sim::reconfig_event& ev, double current_util,
                     std::uint64_t trial_seed, std::size_t event_index,
                     const workload::taskset_params& tmpl) {
    double target = 0.0;
    switch (ev.action) {
    case sim::reconfig_action::scale_up:
    case sim::reconfig_action::scale_down:
        target = current_util * ev.magnitude;
        break;
    case sim::reconfig_action::join:
        target = ev.magnitude;
        break;
    case sim::reconfig_action::leave: break;
    }
    if (target <= 0.0) return {};
    rng er(substream(trial_seed, 0xEC0Full + event_index));
    workload::taskset_params p = tmpl;
    p.total_utilization = target;
    return workload::make_taskset(er, p);
}

/// The last `best_effort_clients` ids form the best-effort class.
bool best_effort(const workload_draw& w, std::uint32_t c) {
    return c + w.best_effort_clients >= w.n_clients;
}

double ratio_of(std::uint64_t part, std::uint64_t whole) {
    return whole == 0 ? 0.0
                      : static_cast<double>(part) /
                            static_cast<double>(whole);
}

using client_list = std::vector<std::unique_ptr<workload::traffic_generator>>;

/// Finalizes the clients and records their per-trial series and
/// counters. An empty list (a refused trial) adds a zero to each series.
void record_clients(obs::registry& out, ic_kind kind, const scenario& s,
                    const client_list& clients, cycle_t now) {
    const std::uint32_t n = s.workload.n_clients;
    stats::running_summary blocking;
    double worst_blocking = 0.0;
    stats::sample_set latency;
    std::uint64_t missed[2] = {};    // [hard, best-effort]
    std::uint64_t accounted[2] = {}; // [hard, best-effort]
    auto retries = out.make_counter("retries");
    auto timeouts = out.make_counter("timeouts");
    auto retry_exhausted = out.make_counter("retry_exhausted");
    auto stale = out.make_counter("stale_responses");
    auto failed = out.make_counter("failed_responses");
    auto deferrals = out.make_counter("shed_deferrals");
    auto reconfigurations = out.make_counter("live_reconfigurations");
    for (std::uint32_t c = 0; c < clients.size(); ++c) {
        clients[c]->finalize(now);
        const auto& st = clients[c]->stats();
        for (double b : st.blocking_cycles().samples()) {
            blocking.add(b);
            worst_blocking = std::max(worst_blocking, b);
        }
        for (double l : st.latency_cycles().samples()) latency.add(l);
        const std::size_t cls = best_effort(s.workload, c) ? 1 : 0;
        missed[cls] += st.missed();
        accounted[cls] += st.completed() + st.abandoned();
        retries.inc(st.retries());
        timeouts.inc(st.timeouts());
        retry_exhausted.inc(st.retry_exhausted());
        stale.inc(st.stale_responses());
        failed.inc(st.failed_responses());
        deferrals.inc(st.shed_deferrals());
        reconfigurations.inc(st.reconfigurations());
    }
    out.make_counter("hard_misses").inc(missed[0]);
    out.make_counter("best_effort_misses").inc(missed[1]);
    out.make_sample("miss_ratio")
        .add(ratio_of(missed[0] + missed[1], accounted[0] + accounted[1]));
    out.make_sample("hard_miss_ratio").add(ratio_of(missed[0], accounted[0]));
    out.make_sample("best_effort_miss_ratio")
        .add(ratio_of(missed[1], accounted[1]));
    out.make_sample("p99_latency_cycles").add(latency.percentile(99.0));
    out.make_sample("worst_latency_cycles").add(latency.max());
    const double us_per_cycle =
        1.0 / hwcost::system_clock_mhz(to_design(kind), n);
    out.make_sample("blocking_us").add(blocking.mean() * us_per_cycle);
    out.make_sample("worst_blocking_us").add(worst_blocking * us_per_cycle);
}

/// Records the fabric's, the memory controller's and the supervisors'
/// counters after the run.
void record_fabric(obs::registry& out, testbench& tb) {
    auto stall_windows = out.make_counter("stall_windows");
    auto stall_cycles = out.make_counter("se_stall_cycles");
    if (auto* bs = dynamic_cast<core::bluescale_ic*>(&tb.ic())) {
        const auto& shape = bs->shape();
        for (std::uint32_t l = 0; l <= shape.leaf_level; ++l) {
            for (std::uint32_t y = 0; y < shape.ses_at_level(l); ++y) {
                stall_cycles.inc(bs->se_at(l, y).fault_stall_cycles());
                stall_windows.inc(bs->se_at(l, y).stall_windows_entered());
            }
        }
    }
    out.make_counter("link_drops").inc(tb.ic().link_dropped());
    out.make_counter("ecc_retries").inc(tb.memctrl().ecc_retries());
    out.make_counter("uncorrected_errors")
        .inc(tb.memctrl().uncorrected_errors());
    out.make_counter("storm_cycles").inc(tb.memctrl().storm_cycles());

    const auto& maint = tb.memctrl().maintenance();
    out.make_counter("refreshes").inc(maint.refreshes());
    out.make_counter("scrubs").inc(maint.scrubs());
    out.make_counter("hammer_mitigations").inc(maint.hammer_mitigations());
    out.make_counter("maintenance_stolen_cycles").inc(maint.stolen_cycles());
    out.make_counter("maintenance_storm_cycles").inc(maint.storm_cycles());

    if (const auto* mon = tb.health()) {
        const auto report = mon->report();
        out.make_counter("degrade_events").inc(report.degrade_events);
        out.make_counter("recovery_events").inc(report.recovery_events);
        out.make_counter("degraded_se_cycles")
            .inc(report.degraded_se_cycles);
        if (report.time_to_recover.count() > 0) {
            out.make_sample("time_to_recover_cycles")
                .add(report.time_to_recover.mean());
        }
    }
    if (const auto* wd = tb.watchdog()) {
        const auto& rep = wd->report();
        out.make_counter("windows_checked").inc(rep.windows_checked);
        out.make_counter("violating_windows").inc(rep.violating_windows);
        out.make_counter("supply_shortfall_alarms")
            .inc(rep.supply_shortfall_alarms);
        out.make_counter("deadline_alarms").inc(rep.deadline_alarms);
        out.make_counter("shed_events").inc(rep.shed_events);
        out.make_counter("restore_events").inc(rep.restore_events);
        out.make_counter("shed_client_cycles").inc(rep.shed_client_cycles);
    }
}

/// Counts one rejection reason under its totals name.
void record_reject(obs::registry& out, core::admission_outcome why) {
    switch (why) {
    case core::admission_outcome::rejected_infeasible:
        out.make_counter("rejected_infeasible").inc();
        break;
    case core::admission_outcome::rejected_overutilized:
        out.make_counter("rejected_overutilized").inc();
        break;
    case core::admission_outcome::rejected_path_hazard:
        out.make_counter("rejected_path_hazard").inc();
        break;
    default: break;
    }
}

/// The manager as the request stream's front end.
void record_manager(obs::registry& out, const core::reconfig_manager& mgr) {
    const auto& st = mgr.stats();
    out.make_counter("submitted").inc(st.submitted);
    out.make_counter("admitted").inc(st.admitted);
    out.make_counter("committed").inc(st.committed);
    out.make_counter("rolled_back").inc(st.rolled_back);
    auto latency = out.make_sample("reconfig_latency_cycles");
    for (const auto& rec : mgr.records()) {
        record_reject(out, rec.outcome);
        if (rec.outcome == core::admission_outcome::committed ||
            rec.outcome == core::admission_outcome::rolled_back) {
            latency.add(static_cast<double>(rec.latency_cycles));
        }
    }
}

/// The service as the request stream's front end, with the conservation
/// check: submitted == shed + expired + rejected + committed, and every
/// record carries exactly one terminal outcome.
void record_service(obs::registry& out, const svc::analysis_service& service,
                    testbench& tb, bool drained) {
    const svc::service_stats st = service.stats();
    out.make_counter("submitted").inc(st.submitted);
    out.make_counter("accepted").inc(st.accepted);
    out.make_counter("shed").inc(st.shed);
    out.make_counter("expired").inc(st.expired);
    out.make_counter("committed").inc(st.committed);
    out.make_counter("rejected").inc(st.rejected);
    out.make_counter("request_retries").inc(st.retries);
    out.make_counter("requeues").inc(st.requeues);
    out.make_counter("worker_crashes").inc(st.worker_crashes);
    out.make_counter("worker_stall_cycles").inc(st.worker_stall_cycles);
    out.make_counter("cache_hits").inc(st.cache_hits);
    out.make_counter("cache_misses").inc(st.cache_misses);
    out.make_counter("cache_invalidations").inc(st.cache_invalidations);
    out.make_counter("drained_trials").inc(drained ? 1 : 0);

    bool conserved = st.submitted == st.shed + st.expired + st.rejected +
                                         st.committed &&
                     st.submitted == service.records().size();
    auto rolled_back = out.make_counter("rolled_back");
    auto latency = out.make_sample("request_latency_cycles");
    for (const auto& rec : service.records()) {
        if (rec.outcome == svc::request_outcome::pending) conserved = false;
        if (rec.outcome == svc::request_outcome::rejected) {
            record_reject(out, rec.reject_reason);
            if (rec.reject_reason == core::admission_outcome::rolled_back) {
                rolled_back.inc();
            }
        }
        if (rec.outcome != svc::request_outcome::shed &&
            rec.outcome != svc::request_outcome::pending) {
            latency.add(
                static_cast<double>(rec.finished_at - rec.submitted_at));
        }
    }
    out.make_counter("conserved_trials").inc(conserved ? 1 : 0);
    auto eval = out.make_sample("eval_cycles");
    for (double x :
         tb.metrics().make_sample("svc/eval_cycles").values().samples()) {
        eval.add(x);
    }
}

trial_output run_trial(ic_kind kind, const scenario& s, std::uint32_t trial,
                       std::uint64_t trial_seed) {
    const std::uint32_t n = s.workload.n_clients;
    // Identical workload, fault schedule and request stream per design
    // at the same trial: all three are pure functions of the trial seed.
    // Fault targets span the BlueScale-sized SE population; baselines
    // collapse link/stall targets onto what they have (see
    // interconnect::inject_campaign).
    const auto tasksets = draw_tasksets(s.workload, trial_seed);
    sim::fault_campaign campaign;
    if (s.faults) {
        sim::fault_campaign_config fc = *s.faults;
        fc.seed = substream(trial_seed, 0xFA171ull);
        fc.horizon = s.measure_cycles;
        fc.n_elements = analysis::make_quadtree_shape(n).total_ses();
        campaign = sim::fault_campaign(fc);
    }
    sim::reconfig_schedule schedule;
    if (s.requests) {
        sim::reconfig_schedule_config sc = *s.requests;
        sc.seed = substream(trial_seed, 0x5EC0ull);
        sc.horizon = s.measure_cycles;
        sc.n_clients = n;
        schedule = sim::reconfig_schedule(sc);
    }

    testbench_options opts;
    opts.n_clients = n;
    opts.memctrl = s.memctrl;
    opts.bluetree_alpha = s.bluetree_alpha;
    opts.bluescale_se = s.bluescale_se;
    opts.selection.bandwidth_tolerance = s.bandwidth_tolerance;
    opts.faults = campaign.empty() ? nullptr : &campaign;
    opts.health = s.health;
    opts.watchdog = s.watchdog;
    opts.reconfig = s.reconfig;
    opts.trace = s.collect_trace && trial == 0;
    if (s.maintenance_aware) {
        const auto model = to_maintenance_model(s.memctrl);
        opts.selection.sched.maintenance = model;
        if (opts.watchdog) opts.watchdog->maintenance = model;
    }
    opts.client_utilizations.reserve(tasksets.size());
    for (const auto& ts : tasksets) {
        opts.client_utilizations.push_back(workload::utilization(ts));
    }
    std::vector<analysis::task_set> rt_sets;
    if (kind == ic_kind::bluescale) {
        rt_sets.reserve(tasksets.size());
        for (const auto& ts : tasksets) {
            rt_sets.push_back(workload::to_rt_tasks(ts));
        }
        opts.rt_sets = &rt_sets;
    }
    testbench tb(kind, opts);

    trial_output out;
    obs::registry totals;
    totals.make_counter("feasible_trials")
        .inc(tb.selection_feasible() ? 1 : 0);
    // Every series exists in every trial, recorded or not.
    for (const char* name :
         {"time_to_recover_cycles", "reconfig_latency_cycles",
          "request_latency_cycles", "eval_cycles"}) {
        (void)totals.make_sample(name);
    }
    client_list clients;
    if (s.skip_refused_trials && !tb.selection_feasible()) {
        record_clients(totals, kind, s, clients, tb.now());
        out.totals = totals.take_snapshot();
        return out;
    }

    // The service is added to the simulator before the clients, so it
    // ticks first each cycle.
    core::reconfig_manager* mgr = tb.reconfig();
    std::optional<svc::analysis_service> service;
    if (s.service && mgr != nullptr) {
        svc::service_config scfg = s.service->config;
        scfg.seed = substream(trial_seed, 0x5E17ull);
        service.emplace(*mgr, scfg);
        service->bind_observability(
            tb.metrics(), tb.tracer("analysis_service"));
        tb.sim().add(*service);
        if (s.service->worker_fault_intensity > 0.0) {
            // Worker faults only: every fabric kind's weight is zeroed.
            sim::fault_campaign_config wfc;
            wfc.seed = substream(trial_seed, 0xFA17Cull);
            wfc.horizon = s.measure_cycles;
            wfc.events_per_kcycle = s.service->worker_fault_intensity;
            wfc.se_stall_weight = 0.0;
            wfc.link_drop_weight = 0.0;
            wfc.dram_error_weight = 0.0;
            wfc.backpressure_weight = 0.0;
            wfc.worker_crash_weight = 1.0;
            wfc.worker_stall_weight = 1.0;
            wfc.n_workers = std::max<std::uint32_t>(1, scfg.workers);
            service->install_faults(sim::fault_campaign(wfc));
        }
    }

    workload::traffic_gen_config tg_cfg;
    tg_cfg.unit_cycles = tb.unit_cycles();
    if (s.client_retry) {
        tg_cfg.retry_timeout_cycles = k_retry_timeout_cycles;
        tg_cfg.max_retries = k_max_retries;
    }
    clients.reserve(n);
    for (std::uint32_t c = 0; c < n; ++c) {
        const std::uint64_t seed =
            s.seeding == client_seeding::fig6_xor
                ? trial_seed ^ (0x5851f42d4c957f2dull + c)
                : substream(trial_seed, c);
        clients.push_back(std::make_unique<workload::traffic_generator>(
            c, tasksets[c], tb.ic(), seed, tg_cfg));
        auto* client = clients.back().get();
        client->bind_observability(tb.metrics());
        tb.add_client(c, *client, [client](mem_request&& r) {
            client->on_response(std::move(r));
        });
    }
    if (auto* wd = tb.watchdog()) {
        for (std::uint32_t c = 0; c < n; ++c) {
            auto* client = clients[c].get();
            wd->track_client(
                c,
                best_effort(s.workload, c) ? core::client_class::best_effort
                                           : core::client_class::hard,
                [client] { return client->stats().missed(); },
                [client](bool on) { client->set_shed(on); });
        }
    }
    if (s.profile) tb.sim().enable_profiling(tb.metrics());

    // Live task-set swaps land at the front end's commit notification;
    // through the manager, the misses accrued between submission and
    // resolution (the transition window) are counted too.
    const auto total_missed = [&] {
        std::uint64_t m = 0;
        for (const auto& c : clients) m += c->stats().missed();
        return m;
    };
    std::map<std::uint64_t, workload::memory_task_set> staged_swaps;
    std::map<std::uint64_t, std::uint64_t> missed_at_submit;
    const auto resolve = [&](std::uint64_t id, bool committed,
                             std::uint32_t client, cycle_t at) {
        auto it = staged_swaps.find(id);
        if (it == staged_swaps.end()) return;
        if (committed) {
            clients[client]->reconfigure_tasks(std::move(it->second), at);
        }
        staged_swaps.erase(it);
    };
    auto transition_misses = totals.make_counter("transition_misses");
    if (service) {
        service->set_complete_hook([&](const svc::request_record& rec,
                                       const analysis::task_set&) {
            resolve(rec.id, rec.outcome == svc::request_outcome::committed,
                    rec.client, rec.finished_at);
        });
    } else if (mgr != nullptr) {
        mgr->set_resolve_hook([&](const core::admission_record& rec,
                                  const analysis::task_set&) {
            auto base = missed_at_submit.find(rec.id);
            if (base != missed_at_submit.end()) {
                transition_misses.inc(total_missed() - base->second);
                missed_at_submit.erase(base);
            }
            resolve(rec.id,
                    rec.outcome == core::admission_outcome::committed,
                    rec.client, rec.resolved_at);
        });
    }

    // Run in segments up to each scheduled request. The service and the
    // manager admit, stage and commit inside the simulation, so a swap
    // lands at the modeled commit instant, not here; without admission
    // control the change lands immediately and unconditionally.
    auto applied_unchecked = totals.make_counter("applied_unchecked");
    for (std::size_t i = 0; i < schedule.events().size(); ++i) {
        const sim::reconfig_event& ev = schedule.events()[i];
        if (ev.at >= s.measure_cycles) break;
        if (ev.at > tb.now()) tb.run(ev.at - tb.now());
        auto tasks = derive_event_taskset(
            ev, workload::utilization(clients[ev.client]->tasks()),
            trial_seed, i, s.workload.taskset);
        if (service) {
            const std::uint64_t id = service->submit(
                ev.client, workload::to_rt_tasks(tasks), tb.now());
            staged_swaps.emplace(id, std::move(tasks));
        } else if (mgr != nullptr) {
            const std::uint64_t id =
                mgr->submit(ev.client, workload::to_rt_tasks(tasks));
            staged_swaps.emplace(id, std::move(tasks));
            missed_at_submit.emplace(id, total_missed());
        } else {
            clients[ev.client]->reconfigure_tasks(std::move(tasks),
                                                  tb.now());
            applied_unchecked.inc();
        }
    }
    tb.run(s.measure_cycles - tb.now());
    // Drain: every service request must reach a terminal outcome.
    const bool drained =
        service && tb.run_until(
                       [&] { return service->idle() && mgr->backlog() == 0; },
                       k_drain_cycles);

    const auto export_obs = [&] {
        if (s.collect_metrics) out.metrics = tb.metrics().take_snapshot();
        if (s.collect_trace && trial == 0) {
            out.trace = tb.trace().export_all();
        }
        if (s.profile) {
            out.profile = tb.metrics().take_snapshot(true).profile_only();
        }
    };
    if (s.metrics_before_finalize) export_obs();
    record_clients(totals, kind, s, clients, tb.now());
    totals.make_counter("injected_events").inc(campaign.size());
    record_fabric(totals, tb);
    if (service) {
        record_service(totals, *service, tb, drained);
    } else if (mgr != nullptr) {
        record_manager(totals, *mgr);
    }
    if (mgr != nullptr) {
        totals.make_counter("stale_reevals").inc(mgr->stats().stale_reevals);
    }
    if (!s.metrics_before_finalize) export_obs();
    out.totals = totals.take_snapshot();
    return out;
}

} // namespace

std::uint64_t sweep_result::count(std::string_view name) const {
    const obs::metric_value* v = totals.find(name);
    return v == nullptr ? 0 : v->count;
}

const stats::sample_set& sweep_result::series(std::string_view name) const {
    static const stats::sample_set empty;
    const obs::metric_value* v = totals.find(name);
    return v == nullptr ? empty : v->samples;
}

double sweep_result::ratio(std::string_view name) const {
    const obs::metric_value* v = totals.find(name);
    return v == nullptr ? 0.0 : v->value;
}

sweep_result run_sweep(ic_kind kind, const scenario& s) {
    // Trials are independent (the per-trial seed is a pure function of
    // the trial counter) and the runner returns them in trial order, so
    // the merges below are bit-identical for any thread count.
    sim::trial_runner runner(s.threads);
    obs::registry sweep_prof;
    if (s.profile) runner.profile_to(sweep_prof);
    auto per_trial = runner.run(s.trials, [&](std::uint32_t t) {
        return run_trial(kind, s, t, s.seed + t);
    });
    sweep_result r;
    for (const auto& t : per_trial) {
        r.totals.merge(t.totals);
        r.metrics.merge(t.metrics);
        r.profile.merge(t.profile);
    }
    if (!per_trial.empty()) r.trace = std::move(per_trial.front().trace);
    if (s.profile) r.profile.merge(sweep_prof.take_snapshot(true));

    // snapshot::merge sums reals, so ratios come from merged counters.
    obs::registry derived;
    derived.make_real("admission_ratio")
        .set(ratio_of(r.count("admitted"), r.count("submitted")));
    const std::uint64_t hits = r.count("cache_hits");
    derived.make_real("cache_hit_ratio")
        .set(ratio_of(hits, hits + r.count("cache_misses")));
    r.totals.merge(derived.take_snapshot());
    return r;
}

} // namespace bluescale::harness
