// Analysis-as-a-service (DESIGN.md Sec. 15): a long-running, multi-worker
// admission/reselection server in front of core::reconfig_manager.
//
// Clients submit task-change requests; N logical worker slots drain a
// BOUNDED request queue, run the const re-entrant admission evaluation
// (reconfig_manager::evaluate), and feed feasible results through the
// manager's transactional apply_evaluated() path -- a commit can never
// apply a selection computed against superseded state (stale evaluations
// are transparently re-run by the manager).
//
// Robustness machinery, all deterministic in virtual time:
//
//   * Backpressure with hysteresis: a full queue sheds new submissions
//     (structured `shed` outcome) and keeps shedding until the depth
//     drains to a low watermark, so an overload burst cannot flap the
//     admission path open and closed every cycle.
//   * Per-request deadlines with cancellation: an expired request is
//     dropped before any work runs, and an in-flight evaluation is
//     abandoned once its request's deadline passes. Deadlines are virtual
//     cycles; the service reads no host clock.
//   * Seeded retry with exponential backoff + jitter for transient
//     path-hazard rejections: the jitter stream is derived per (seed,
//     request, attempt) via substream(), so storm runs stay bit-identical
//     for any trial-sweep thread count.
//   * A result cache of whole admission evaluations keyed on (client,
//     task set), compared in full, holding at most 64 entries (oldest
//     evicted first) and cleared whenever the manager commits a
//     reconfiguration. A hit costs 2 cycles of modeled worker time
//     against the tens of thousands an evaluation models, which is
//     why it stays: with it off, commits at 8 req/kcycle in the default
//     svc_storm sweep fall from 149 to 125 at seed 1 (DESIGN.md Sec. 15).
//     analysis::selection_cache cannot stand in for it -- its hits replay
//     the work counters, so they cost the same modeled time.
//   * Seed-driven worker faults (sim::fault_campaign worker_crash /
//     worker_stall slices): a crash re-queues the in-flight request
//     exactly once at the queue front; a stall defers completion cycle
//     for cycle. Neither can lose or duplicate a request.
//
// Every request ends in exactly one of {committed, rejected(reason),
// expired, shed}; the obs counters conserve (submitted == shed + expired
// + rejected + committed once the service is idle).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/reconfig_manager.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/component.hpp"
#include "sim/fault.hpp"

namespace bluescale::svc {

/// Terminal disposition of one service request.
enum class request_outcome : std::uint8_t {
    pending,   ///< not yet resolved
    committed, ///< admitted and committed by the reconfig manager
    rejected,  ///< structured rejection (see reject_reason)
    expired,   ///< deadline passed before the request could commit
    shed,      ///< refused at submission: queue full (backpressure)
};

[[nodiscard]] const char* request_outcome_name(request_outcome o);

struct service_config {
    /// Logical worker slots draining the queue (virtual-time concurrency;
    /// the trial-sweep --threads knob is orthogonal and never changes
    /// service behavior).
    std::uint32_t workers = 2;
    /// Bound on the request queue; a submit against a full queue is shed.
    std::size_t max_queue = 16;
    /// Hysteresis low watermark: once shedding starts it continues until
    /// the queue drains to this depth (0 = max_queue / 2).
    std::size_t resume_depth = 0;
    /// Default per-request deadline, relative cycles from submission
    /// (0 = none). Virtual-time clock; deterministic.
    cycle_t default_deadline = 0;
    /// Retry budget for transient path-hazard rejections.
    std::uint32_t max_retries = 3;
    /// Exponential backoff: delay = min(cap, base << attempt) + jitter,
    /// jitter uniform in [0, base) from substream(seed, request, attempt).
    cycle_t backoff_base = 64;
    cycle_t backoff_cap = 4096;
    std::uint64_t seed = 1;
    /// Modeled worker busy time: max(min_eval_cycles, evaluation's
    /// parameter-path cycles); a result-cache hit costs 2 cycles.
    std::uint64_t min_eval_cycles = 8;
};

/// Full audit record of one service request.
struct request_record {
    std::uint64_t id = 0;
    std::uint32_t client = 0;
    request_outcome outcome = request_outcome::pending;
    /// Structured reason when outcome == rejected (or expired via the
    /// manager's deadline gate).
    core::admission_outcome reject_reason = core::admission_outcome::pending;
    bool cache_hit = false;
    std::uint32_t retries = 0;
    /// Crash-driven exactly-once re-queues this request survived.
    std::uint32_t requeues = 0;
    cycle_t submitted_at = 0;
    cycle_t finished_at = 0;
    std::string detail;
};

/// Counter snapshot (values read out of obs handles).
struct service_stats {
    std::uint64_t submitted = 0;
    std::uint64_t accepted = 0; ///< entered the queue (not shed)
    std::uint64_t shed = 0;
    std::uint64_t expired = 0;
    std::uint64_t committed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t retries = 0;
    std::uint64_t requeues = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_invalidations = 0;
    std::uint64_t worker_crashes = 0;
    std::uint64_t worker_stall_cycles = 0;
};

class analysis_service : public component {
public:
    /// Fired when a request reaches its terminal outcome; `tasks` is the
    /// request's task set. The storm harness swaps the client's live
    /// workload on the committed notifications.
    using complete_hook = std::function<void(
        const request_record&, const analysis::task_set& tasks)>;

    analysis_service(core::reconfig_manager& mgr, service_config cfg = {});

    void set_complete_hook(complete_hook h) { on_complete_ = std::move(h); }

    /// Submits a task-change request for `client` at virtual cycle `at`
    /// (pass the simulator's current time; the service cannot infer it --
    /// an idle service is not ticked by the event engine, so its latched
    /// clock may lag). `deadline` is the absolute virtual cycle by which
    /// the request must have committed (k_cycle_never =
    /// cfg.default_deadline relative, or none). Returns the request id;
    /// the terminal outcome lands in record(id).
    std::uint64_t submit(std::uint32_t client, analysis::task_set tasks,
                         cycle_t at, cycle_t deadline = k_cycle_never);

    /// Installs the worker_crash / worker_stall slices of a campaign,
    /// one pair of windows per worker slot.
    void install_faults(const sim::fault_campaign& campaign);

    void tick(cycle_t now) override;
    [[nodiscard]] cycle_t next_event(cycle_t now) const override;

    /// True when no request is queued, in flight, awaiting retry, or
    /// outstanding with the manager -- the storm drivers drain on this.
    [[nodiscard]] bool idle() const;

    [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
    [[nodiscard]] bool shedding() const { return shedding_; }

    [[nodiscard]] const std::vector<request_record>& records() const {
        return records_;
    }
    [[nodiscard]] const request_record& record(std::uint64_t id) const {
        return records_[id];
    }
    [[nodiscard]] service_stats stats() const;

    /// Re-homes the service counters into `reg` under "svc/..." and
    /// attaches the trace stream; call before the trial starts.
    void bind_observability(obs::registry& reg, obs::tracer tracer);

private:
    /// Per-request working state, parallel to records_.
    struct request_state {
        analysis::task_set tasks;
        cycle_t deadline = k_cycle_never; ///< absolute virtual cycle
        core::admission_evaluation eval;
        bool has_eval = false;
        std::uint64_t mgr_id = 0;
        cycle_t retry_at = k_cycle_never;
    };

    struct worker {
        sim::fault_window crash;
        sim::fault_window stall;
        bool crashed = false; ///< crash-window level (edge detection)
        bool busy = false;
        std::uint64_t req = 0;
        cycle_t done_at = 0;
    };

    struct cache_entry {
        std::uint32_t client = 0;
        analysis::task_set tasks;
        core::admission_evaluation eval;
    };

    void finish(std::uint64_t id, cycle_t now, request_outcome outcome,
                core::admission_outcome reason, std::string detail);
    void sweep_expired_queue(cycle_t now);
    void service_retries(cycle_t now);
    void step_workers(cycle_t now);
    void complete(std::uint64_t id, cycle_t now);
    void poll_manager(cycle_t now);
    void handle_manager_outcome(std::uint64_t id,
                                const core::admission_record& rec,
                                cycle_t now);
    void dispatch(cycle_t now);
    void run_evaluation(std::uint64_t id, worker& w, cycle_t now);
    [[nodiscard]] cycle_t backoff_delay(std::uint64_t id,
                                        std::uint32_t attempt) const;

    core::reconfig_manager& mgr_;
    service_config cfg_;
    std::size_t resume_depth_ = 0;

    cycle_t now_ = 0; ///< latched at tick()/submit() (monotonic)
    std::deque<std::uint64_t> queue_;
    bool shedding_ = false;
    std::vector<std::uint64_t> retry_ids_;
    std::vector<std::uint64_t> outstanding_; ///< awaiting manager outcome
    std::vector<worker> workers_;

    std::uint64_t cache_version_ = 0; ///< manager version the cache is for
    std::deque<cache_entry> cache_;   ///< insertion order (FIFO eviction)

    std::vector<request_record> records_;
    std::vector<request_state> states_;
    complete_hook on_complete_;

    /// Fallback registry for unbound instances.
    std::unique_ptr<obs::registry> own_;
    obs::counter submitted_;
    obs::counter accepted_;
    obs::counter shed_;
    obs::counter expired_;
    obs::counter committed_;
    obs::counter rejected_;
    obs::counter retries_;
    obs::counter requeues_;
    obs::counter cache_hits_;
    obs::counter cache_misses_;
    obs::counter cache_invalidations_;
    obs::counter worker_crashes_;
    obs::counter worker_stall_cycles_;
    obs::sample eval_cycles_;
    obs::sample latency_cycles_;
    obs::tracer trace_;
};

} // namespace bluescale::svc
