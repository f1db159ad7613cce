// Hardened analysis-as-a-service: bounded-queue shedding with
// hysteresis, per-request deadline cancellation (queued AND in-flight),
// deterministic retry/backoff for transient path hazards, the
// (client, task set) result cache with invalidate-on-commit, and
// exactly-once re-queue under scripted worker crash/stall faults. Every
// test closes with the conservation identity: submitted == shed +
// expired + rejected + committed once the service is idle.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/bluescale_ic.hpp"
#include "core/reconfig_manager.hpp"
#include "mem/memory_controller.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"
#include "svc/analysis_service.hpp"

namespace bluescale::svc {
namespace {

struct rig {
    explicit rig(service_config scfg = {}, core::reconfig_config mcfg = {})
        : fabric(16),
          clients(16, analysis::task_set{{200, 4}}),
          selection(analysis::select_tree_interfaces(clients)) {
        EXPECT_TRUE(selection.feasible);
        fabric.attach_memory(mem);
        fabric.set_response_handler([](mem_request&&) {});
        fabric.configure(selection);
        mgr = std::make_unique<core::reconfig_manager>(fabric, selection,
                                                       clients, mcfg);
        service = std::make_unique<analysis_service>(*mgr, scfg);
        sim.add(fabric);
        sim.add(mem);
        sim.add(*mgr);
        sim.add(*service); // after the manager, as in the storm harness
    }

    /// Runs until the request record is terminal (bounded).
    void run_until_done(std::uint64_t id, cycle_t max_cycles = 500'000) {
        sim.run_until(
            [&] {
                return service->record(id).outcome !=
                       request_outcome::pending;
            },
            max_cycles);
    }

    void run_until_idle(cycle_t max_cycles = 500'000) {
        sim.run_until(
            [&] { return service->idle() && mgr->backlog() == 0; },
            max_cycles);
    }

    /// The conservation identity every drained run must satisfy.
    void expect_conserved() {
        const auto s = service->stats();
        EXPECT_EQ(s.submitted,
                  s.shed + s.expired + s.rejected + s.committed);
        EXPECT_EQ(s.submitted, service->records().size());
        for (const auto& rec : service->records()) {
            EXPECT_NE(rec.outcome, request_outcome::pending)
                << "request " << rec.id;
        }
    }

    core::bluescale_ic fabric;
    memory_controller mem;
    std::vector<analysis::task_set> clients;
    analysis::tree_selection selection;
    std::unique_ptr<core::reconfig_manager> mgr;
    std::unique_ptr<analysis_service> service;
    simulator sim;
};

TEST(analysis_service, feasible_request_commits_end_to_end) {
    rig r;
    const auto id =
        r.service->submit(6, analysis::task_set{{100, 8}}, r.sim.now());
    r.run_until_done(id);
    const auto& rec = r.service->record(id);
    EXPECT_EQ(rec.outcome, request_outcome::committed);
    EXPECT_GT(rec.finished_at, rec.submitted_at);
    // The manager's committed state carries the request's task set.
    ASSERT_EQ(r.mgr->client_tasks()[6].size(), 1u);
    EXPECT_EQ(r.mgr->client_tasks()[6][0].period, 100u);
    r.run_until_idle();
    r.expect_conserved();
    EXPECT_EQ(r.service->stats().accepted, 1u);
}

TEST(analysis_service, bounded_queue_sheds_with_hysteresis) {
    service_config cfg;
    cfg.workers = 1;
    cfg.max_queue = 2;
    cfg.resume_depth = 1;
    cfg.min_eval_cycles = 50'000; // nothing drains during the test
    rig r(cfg);
    const analysis::task_set tasks{{100, 8}};

    const auto a = r.service->submit(1, tasks, r.sim.now());
    const auto b = r.service->submit(2, tasks, r.sim.now());
    const auto c = r.service->submit(3, tasks, r.sim.now());
    const auto d = r.service->submit(4, tasks, r.sim.now());
    EXPECT_EQ(r.service->record(a).outcome, request_outcome::pending);
    EXPECT_EQ(r.service->record(b).outcome, request_outcome::pending);
    // The queue bound shed c and d immediately, with a structured reason.
    for (auto id : {c, d}) {
        const auto& rec = r.service->record(id);
        EXPECT_EQ(rec.outcome, request_outcome::shed);
        EXPECT_EQ(rec.reject_reason,
                  core::admission_outcome::rejected_queue_full);
        EXPECT_EQ(rec.finished_at, rec.submitted_at);
        EXPECT_FALSE(rec.detail.empty());
    }
    EXPECT_TRUE(r.service->shedding());

    // One dispatch drains the queue to the low watermark; the hysteresis
    // gate then reopens admission.
    r.sim.run(4);
    ASSERT_EQ(r.service->queue_depth(), 1u);
    const auto e = r.service->submit(5, tasks, r.sim.now());
    EXPECT_EQ(r.service->record(e).outcome, request_outcome::pending);
    EXPECT_FALSE(r.service->shedding());
    EXPECT_EQ(r.service->stats().shed, 2u);
    EXPECT_EQ(r.service->stats().accepted, 3u);
}

TEST(analysis_service, queued_request_expires_at_its_deadline) {
    service_config cfg;
    cfg.workers = 1;
    cfg.min_eval_cycles = 10'000; // first request occupies the worker
    rig r(cfg);
    const auto a =
        r.service->submit(1, analysis::task_set{{100, 8}}, r.sim.now());
    const auto b = r.service->submit(2, analysis::task_set{{100, 8}},
                                     r.sim.now(), /*deadline=*/50);
    r.sim.run(200);
    EXPECT_EQ(r.service->record(a).outcome, request_outcome::pending);
    const auto& rec = r.service->record(b);
    EXPECT_EQ(rec.outcome, request_outcome::expired);
    EXPECT_EQ(rec.reject_reason,
              core::admission_outcome::rejected_deadline_expired);
    // Expiry is swept the cycle after the deadline passes, not later.
    EXPECT_EQ(rec.finished_at, 51u);
}

TEST(analysis_service, deadline_cancels_an_in_flight_evaluation) {
    service_config cfg;
    cfg.workers = 1;
    cfg.min_eval_cycles = 10'000; // far beyond the request's deadline
    rig r(cfg);
    const auto a = r.service->submit(1, analysis::task_set{{100, 8}},
                                     r.sim.now(), /*deadline=*/100);
    r.sim.run(5);
    // Dispatched: the evaluation's modeled cost will outrun the deadline.
    EXPECT_FALSE(r.service->idle());
    r.sim.run(200);
    const auto& rec = r.service->record(a);
    EXPECT_EQ(rec.outcome, request_outcome::expired);
    EXPECT_EQ(rec.finished_at, 101u);
    EXPECT_NE(rec.detail.find("cancelled"), std::string::npos)
        << rec.detail;

    // Cancellation freed the worker slot: a live request runs to commit.
    const auto b =
        r.service->submit(2, analysis::task_set{{100, 8}}, r.sim.now());
    r.run_until_done(b);
    EXPECT_EQ(r.service->record(b).outcome, request_outcome::committed);
    r.run_until_idle();
    r.expect_conserved();
}

TEST(analysis_service, transient_path_hazard_retries_then_commits) {
    service_config cfg;
    // A generous retry budget and long backoff rounds, so the hazard can
    // clear mid-backoff without the budget running dry first.
    cfg.max_retries = 10;
    cfg.backoff_base = 2'048;
    cfg.backoff_cap = 8'192;
    rig r(cfg);
    // Client 6 sits behind leaf SE(1, 1): the manager rejects its
    // admission with rejected_path_hazard while the SE is degraded.
    r.fabric.se_at(1, 1).set_degraded(true);
    const auto id =
        r.service->submit(6, analysis::task_set{{100, 8}}, r.sim.now());
    // The first exact evaluation models O(10k) cycles; run past it plus
    // at least one backoff round (the redo is a cache hit, so cheap).
    r.sim.run(15'000);
    EXPECT_EQ(r.service->record(id).outcome, request_outcome::pending);
    EXPECT_GE(r.service->record(id).retries, 1u);

    // The hazard clears; the next retry goes through.
    r.fabric.se_at(1, 1).set_degraded(false);
    r.run_until_done(id);
    const auto& rec = r.service->record(id);
    EXPECT_EQ(rec.outcome, request_outcome::committed);
    EXPECT_GE(rec.retries, 1u);
    EXPECT_EQ(r.service->stats().retries, rec.retries);
    r.run_until_idle();
    r.expect_conserved();
}

TEST(analysis_service, retries_exhaust_into_a_structured_rejection) {
    service_config cfg;
    cfg.max_retries = 2;
    rig r(cfg);
    r.fabric.se_at(1, 1).set_degraded(true); // never recovers
    const auto id =
        r.service->submit(6, analysis::task_set{{100, 8}}, r.sim.now());
    r.run_until_done(id);
    const auto& rec = r.service->record(id);
    EXPECT_EQ(rec.outcome, request_outcome::rejected);
    EXPECT_EQ(rec.reject_reason,
              core::admission_outcome::rejected_path_hazard);
    EXPECT_EQ(rec.retries, 2u);
    EXPECT_NE(rec.detail.find("retries exhausted"), std::string::npos)
        << rec.detail;
    r.run_until_idle();
    r.expect_conserved();
}

TEST(analysis_service, retry_backoff_schedule_is_deterministic) {
    // Two identical rigs, identical submissions: the seeded jitter must
    // give byte-identical retry counts and resolution times.
    auto run_one = [] {
        rig r;
        r.fabric.se_at(1, 1).set_degraded(true);
        r.service->submit(6, analysis::task_set{{100, 8}}, r.sim.now());
        r.service->submit(7, analysis::task_set{{150, 6}}, r.sim.now());
        r.sim.run(100'000);
        std::vector<std::tuple<request_outcome, cycle_t, std::uint32_t>>
            out;
        for (const auto& rec : r.service->records()) {
            out.emplace_back(rec.outcome, rec.finished_at, rec.retries);
        }
        return out;
    };
    EXPECT_EQ(run_one(), run_one());
}

TEST(analysis_service, result_cache_hits_and_invalidates_on_commit) {
    service_config cfg;
    cfg.workers = 1;
    rig r(cfg);
    // Near-unit utilization: infeasible, so resolving it commits nothing
    // and the cache entry stays valid for the repeat.
    const analysis::task_set heavy{{40, 39}};
    const auto a = r.service->submit(3, heavy, r.sim.now());
    r.run_until_done(a);
    EXPECT_EQ(r.service->record(a).outcome, request_outcome::rejected);
    EXPECT_FALSE(r.service->record(a).cache_hit);

    const auto b = r.service->submit(3, heavy, r.sim.now());
    r.run_until_done(b);
    EXPECT_EQ(r.service->record(b).outcome, request_outcome::rejected);
    EXPECT_TRUE(r.service->record(b).cache_hit);
    EXPECT_EQ(r.service->stats().cache_hits, 1u);

    // The key is the (client, task set) pair, compared in full: the same
    // task set on another client misses, and so does another task set on
    // the same client; a repeat of either then hits.
    const analysis::task_set heavier{{40, 39}, {400, 1}};
    for (const auto& [client, tasks] :
         {std::pair{4u, heavy}, std::pair{3u, heavier}}) {
        const auto miss = r.service->submit(client, tasks, r.sim.now());
        r.run_until_done(miss);
        EXPECT_EQ(r.service->record(miss).outcome,
                  request_outcome::rejected);
        EXPECT_FALSE(r.service->record(miss).cache_hit)
            << "client " << client;
        const auto repeat = r.service->submit(client, tasks, r.sim.now());
        r.run_until_done(repeat);
        EXPECT_TRUE(r.service->record(repeat).cache_hit)
            << "client " << client;
    }
    EXPECT_EQ(r.service->stats().cache_hits, 3u);
    EXPECT_EQ(r.service->stats().cache_misses, 3u);

    // A committed reconfiguration supersedes every cached evaluation.
    const auto c =
        r.service->submit(9, analysis::task_set{{100, 8}}, r.sim.now());
    r.run_until_done(c);
    ASSERT_EQ(r.service->record(c).outcome, request_outcome::committed);
    const auto d = r.service->submit(3, heavy, r.sim.now());
    r.run_until_done(d);
    EXPECT_FALSE(r.service->record(d).cache_hit);
    EXPECT_EQ(r.service->stats().cache_invalidations, 1u);
    r.run_until_idle();
    r.expect_conserved();
}

TEST(analysis_service, worker_crash_requeues_in_flight_exactly_once) {
    service_config cfg;
    cfg.workers = 1;
    cfg.min_eval_cycles = 1'000;
    rig r(cfg);
    // Scripted crash mid-evaluation: [100, 150).
    r.service->install_faults(sim::fault_campaign(
        {{sim::fault_kind::worker_crash, 0, 100, 50}}));
    const auto id =
        r.service->submit(6, analysis::task_set{{100, 8}}, r.sim.now());
    r.run_until_done(id);
    const auto& rec = r.service->record(id);
    EXPECT_EQ(rec.outcome, request_outcome::committed);
    EXPECT_EQ(rec.requeues, 1u);
    EXPECT_EQ(r.service->stats().worker_crashes, 1u);
    EXPECT_EQ(r.service->stats().requeues, 1u);
    // The redo hit the result cache (no commit happened in between), so
    // the crash cost little beyond the window itself.
    EXPECT_TRUE(rec.cache_hit);
    // Exactly-once: a single manager transaction, a single commit.
    EXPECT_EQ(r.mgr->stats().committed, 1u);
    EXPECT_EQ(r.mgr->stats().submitted, 1u);
    r.run_until_idle();
    r.expect_conserved();
}

TEST(analysis_service, worker_stall_defers_completion_without_loss) {
    service_config cfg;
    cfg.workers = 1;
    cfg.min_eval_cycles = 1'000;
    rig r(cfg);
    r.service->install_faults(sim::fault_campaign(
        {{sim::fault_kind::worker_stall, 0, 100, 100}}));
    const auto id =
        r.service->submit(6, analysis::task_set{{100, 8}}, r.sim.now());
    r.run_until_done(id);
    EXPECT_EQ(r.service->record(id).outcome, request_outcome::committed);
    EXPECT_EQ(r.service->record(id).requeues, 0u);
    EXPECT_EQ(r.service->stats().worker_stall_cycles, 100u);
    r.run_until_idle();
    r.expect_conserved();
}

TEST(analysis_service, idle_worker_crash_is_counted_but_harmless) {
    service_config cfg;
    cfg.workers = 1;
    rig r(cfg);
    r.service->install_faults(sim::fault_campaign(
        {{sim::fault_kind::worker_crash, 0, 10, 20}}));
    r.sim.run(100); // the crash window passes with no work in flight
    EXPECT_EQ(r.service->stats().worker_crashes, 1u);
    EXPECT_EQ(r.service->stats().requeues, 0u);
    const auto id =
        r.service->submit(6, analysis::task_set{{100, 8}}, r.sim.now());
    r.run_until_done(id);
    EXPECT_EQ(r.service->record(id).outcome, request_outcome::committed);
}

TEST(analysis_service, conservation_holds_under_scripted_chaos) {
    service_config cfg;
    cfg.workers = 2;
    cfg.max_queue = 4;
    cfg.default_deadline = 4'000;
    rig r(cfg);
    // A dense seeded worker-fault campaign over the submission window.
    sim::fault_campaign_config fc;
    fc.seed = 77;
    fc.horizon = 20'000;
    fc.events_per_kcycle = 2.0;
    fc.se_stall_weight = 0.0;
    fc.link_drop_weight = 0.0;
    fc.dram_error_weight = 0.0;
    fc.backpressure_weight = 0.0;
    fc.worker_crash_weight = 1.0;
    fc.worker_stall_weight = 1.0;
    fc.n_workers = 2;
    const sim::fault_campaign campaign(fc);
    ASSERT_FALSE(campaign.empty());
    r.service->install_faults(campaign);

    for (std::uint32_t i = 0; i < 40; ++i) {
        r.sim.run(500);
        const std::uint32_t client = (i * 7) % 16;
        const std::uint32_t period = 80 + 10 * (i % 8);
        r.service->submit(client, analysis::task_set{{period, 4}},
                          r.sim.now());
    }
    r.run_until_idle(1'000'000);
    EXPECT_TRUE(r.service->idle());
    r.expect_conserved();
    EXPECT_EQ(r.service->stats().submitted, 40u);
    // The campaign actually exercised the fault paths.
    EXPECT_GT(r.service->stats().worker_crashes +
                  r.service->stats().worker_stall_cycles,
              0u);
}

} // namespace
} // namespace bluescale::svc
