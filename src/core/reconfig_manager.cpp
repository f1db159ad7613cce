#include "core/reconfig_manager.hpp"

#include <cassert>
#include <utility>

#include "core/bluescale_ic.hpp"

namespace bluescale::core {

const char* admission_outcome_name(admission_outcome o) {
    switch (o) {
    case admission_outcome::pending: return "pending";
    case admission_outcome::rejected_infeasible: return "rejected_infeasible";
    case admission_outcome::rejected_overutilized:
        return "rejected_overutilized";
    case admission_outcome::rejected_path_hazard:
        return "rejected_path_hazard";
    case admission_outcome::rejected_queue_full:
        return "rejected_queue_full";
    case admission_outcome::rejected_deadline_expired:
        return "rejected_deadline_expired";
    case admission_outcome::staged: return "staged";
    case admission_outcome::committed: return "committed";
    case admission_outcome::rolled_back: return "rolled_back";
    }
    return "?";
}

reconfig_manager::reconfig_manager(bluescale_ic& fabric,
                                   analysis::tree_selection committed,
                                   std::vector<analysis::task_set> tasks,
                                   reconfig_config cfg)
    : component("reconfig_manager"), fabric_(fabric), cfg_(std::move(cfg)),
      committed_(std::move(committed)), client_tasks_(std::move(tasks)),
      own_(std::make_unique<obs::registry>()) {
    bind_observability(*own_, obs::tracer{});
    assert(committed_.shape.leaf_level == fabric_.shape().leaf_level);
}

void reconfig_manager::bind_observability(obs::registry& reg,
                                          obs::tracer tracer) {
    submitted_ = reg.make_counter("reconfig/submitted");
    admitted_ = reg.make_counter("reconfig/admitted");
    rejected_ = reg.make_counter("reconfig/rejected");
    committed_count_ = reg.make_counter("reconfig/committed");
    rolled_back_ = reg.make_counter("reconfig/rolled_back");
    deadline_expired_ =
        reg.make_counter("reconfig/rejected_deadline_expired");
    stale_reevals_ = reg.make_counter("reconfig/stale_reevals");
    reconfig_latency_ = reg.make_sample("reconfig/latency_cycles");
    trace_ = tracer;
}

std::uint64_t reconfig_manager::submit(std::uint32_t client,
                                       analysis::task_set tasks,
                                       cycle_t deadline) {
    queued_request req;
    req.client = client;
    req.tasks = std::move(tasks);
    req.deadline = deadline;
    return enqueue(std::move(req));
}

std::uint64_t reconfig_manager::apply_evaluated(std::uint32_t client,
                                                analysis::task_set tasks,
                                                admission_evaluation eval,
                                                cycle_t deadline) {
    queued_request req;
    req.client = client;
    req.tasks = std::move(tasks);
    req.deadline = deadline;
    req.has_eval = true;
    req.eval_version = eval.version;
    req.eval_report = std::move(eval.report);
    return enqueue(std::move(req));
}

std::uint64_t reconfig_manager::enqueue(queued_request req) {
    assert(req.client < committed_.shape.padded_clients);
    admission_record rec;
    rec.id = records_.size();
    rec.client = req.client;
    rec.submitted_at = now_;
    rec.deadline = req.deadline;
    records_.push_back(rec);
    submitted_.inc();
    req.id = rec.id;
    queue_.push_back(std::move(req));
    wake(); // a sleeping manager must run the admission test next tick
    return rec.id;
}

admission_evaluation
reconfig_manager::evaluate(std::uint32_t client,
                           const analysis::task_set& tasks) const {
    assert(client < committed_.shape.padded_clients);
    admission_evaluation eval;
    eval.version = version_;
    eval.report = model_client_update(committed_, client_tasks_, client,
                                      tasks, cfg_.selection, cfg_.costs);
    eval.feasible = eval.report.feasible;
    if (!eval.feasible) {
        const analysis::selection_failure& fail =
            eval.report.selection.failure;
        eval.reject_reason =
            fail.reason ==
                    analysis::selection_failure_reason::root_overutilized
                ? admission_outcome::rejected_overutilized
                : admission_outcome::rejected_infeasible;
        eval.detail = fail.empty()
                          ? "no feasible interface on the request path"
                          : fail.to_string();
    }
    return eval;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>>
reconfig_manager::request_path(std::uint32_t client) const {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> path;
    const auto& shape = committed_.shape;
    std::uint32_t order = shape.leaf_se_of_client(client);
    for (std::uint32_t l = shape.leaf_level;; --l) {
        // Control-plane path enumeration: O(tree depth) per admission
        // transaction, not per cycle.
        // detlint:allow(hotpath-alloc): amortized admission-time work
        path.emplace_back(l, order);
        if (l == 0) break;
        order = analysis::quadtree_shape::parent_order(order);
    }
    return path;
}

bool reconfig_manager::path_hazard(std::uint32_t client,
                                   std::string* why) const {
    for (const auto& [l, y] : request_path(client)) {
        const scale_element& se = fabric_.se_at(l, y);
        if (se.degraded() || se.stalled_now()) {
            if (why != nullptr) {
                *why = std::string(se.degraded() ? "degraded" : "stalled") +
                       " SE(" + std::to_string(l) + "," + std::to_string(y) +
                       ") on the request path";
            }
            return true;
        }
    }
    return false;
}

void reconfig_manager::resolve(admission_record& rec,
                               const analysis::task_set& tasks) {
    records_[rec.id] = rec;
    if (on_resolve_) on_resolve_(records_[rec.id], tasks);
}

void reconfig_manager::start_admission(queued_request req, cycle_t now) {
    admission_record rec = records_[req.id];
    rec.decided_at = now;

    // Deadline cancellation: a request that waited past its deadline is
    // dropped before any work runs (zero perturbation).
    if (now > rec.deadline) {
        rec.outcome = admission_outcome::rejected_deadline_expired;
        rec.detail = "deadline " + std::to_string(rec.deadline) +
                     " expired before admission (now " +
                     std::to_string(now) + ")";
        rec.resolved_at = now;
        rejected_.inc();
        deadline_expired_.inc();
        resolve(rec, req.tasks);
        return;
    }

    // Admission-time hazard gate: reconfiguring through an unhealthy path
    // is refused outright (the selector FSMs on that path cannot be
    // trusted to deliver).
    std::string hazard;
    if (path_hazard(req.client, &hazard)) {
        rec.outcome = admission_outcome::rejected_path_hazard;
        rec.detail = hazard;
        rec.resolved_at = now;
        rejected_.inc();
        resolve(rec, req.tasks);
        return;
    }

    // Sec. 5 admission test, incremental: only the request path
    // recomputes. model_client_update copies the committed state, so a
    // rejection leaves it byte-identical. A precomputed evaluation
    // (apply_evaluated) is honored while its version still matches the
    // committed state it was computed against; otherwise it is stale and
    // the test re-runs fresh -- committing a selection evaluated against
    // superseded state is impossible.
    reconfig_report report;
    if (req.has_eval && req.eval_version == version_) {
        report = std::move(req.eval_report);
    } else {
        if (req.has_eval) stale_reevals_.inc();
        report = model_client_update(committed_, client_tasks_, req.client,
                                     req.tasks, cfg_.selection, cfg_.costs);
    }
    rec.latency_cycles = report.total_cycles;
    rec.ses_involved = report.ses_involved;
    rec.root_bandwidth = report.selection.root_bandwidth;

    if (!report.feasible) {
        const analysis::selection_failure& fail = report.selection.failure;
        rec.outcome =
            fail.reason ==
                    analysis::selection_failure_reason::root_overutilized
                ? admission_outcome::rejected_overutilized
                : admission_outcome::rejected_infeasible;
        rec.detail = fail.empty()
                         ? "no feasible interface on the request path"
                         : fail.to_string();
        rec.resolved_at = now;
        rejected_.inc();
        resolve(rec, req.tasks);
        return;
    }

    // Stage: the new selection becomes live only after the parameter
    // path's propagation latency has elapsed.
    staged_selection_ = std::move(report.selection);
    staged_tasks_ = client_tasks_;
    if (req.client >= staged_tasks_.size()) {
        // Admission staging: one snapshot per accepted request, amortized
        // over the reconfiguration latency being charged to it.
        // detlint:allow(hotpath-alloc): amortized admission-time work
        staged_tasks_.resize(req.client + 1);
    }
    staged_tasks_[req.client] = std::move(req.tasks);
    staging_ = true;
    staging_id_ = rec.id;
    commit_at_ = now + report.total_cycles;
    rec.outcome = admission_outcome::staged;
    admitted_.inc();
    reconfig_latency_.add(static_cast<double>(report.total_cycles));
    records_[rec.id] = rec;
}

void reconfig_manager::roll_back(cycle_t now, std::string why,
                                 bool fabric_touched) {
    // Restore the previous committed (Pi, Theta) everywhere. When the
    // fabric was never reprogrammed the configure is a no-op re-assertion
    // of the committed parameters, kept unconditional so a rollback always
    // leaves the fabric provably in the committed state.
    if (fabric_touched) fabric_.configure(committed_);
    admission_record rec = records_[staging_id_];
    rec.outcome = admission_outcome::rolled_back;
    rec.detail = std::move(why);
    rec.resolved_at = now;
    rolled_back_.inc();
    trace_.emit(obs::trace_event_kind::reconfig_rollback, rec.id,
                rec.client);
    staging_ = false;
    const analysis::task_set& tasks =
        rec.client < client_tasks_.size() ? client_tasks_[rec.client]
                                          : analysis::task_set{};
    resolve(rec, tasks);
    staged_selection_ = {};
    staged_tasks_.clear();
}

void reconfig_manager::commit(cycle_t now) {
    admission_record rec = records_[staging_id_];
    // The parameter path has delivered: reprogram the fabric's servers.
    fabric_.configure(staged_selection_);

    // Commit-instant hazard: a fault window or degradation overlapping the
    // moment the new parameters land invalidates the distributed delivery
    // -- restore the prior selection everywhere.
    std::string hazard;
    if (path_hazard(rec.client, &hazard)) {
        roll_back(now, "commit hazard: " + hazard, /*fabric_touched=*/true);
        return;
    }

    committed_ = std::move(staged_selection_);
    client_tasks_ = std::move(staged_tasks_);
    ++version_; // invalidates outstanding evaluations and result caches
    staging_ = false;
    staged_selection_ = {};
    staged_tasks_.clear();
    rec.outcome = admission_outcome::committed;
    rec.resolved_at = now;
    committed_count_.inc();
    trace_.emit(obs::trace_event_kind::reconfig_commit, rec.id, rec.client);
    const std::uint32_t c = rec.client;
    resolve(rec, c < client_tasks_.size() ? client_tasks_[c]
                                          : analysis::task_set{});
}

void reconfig_manager::tick(cycle_t now) {
    now_ = now;
    if (staging_) {
        // At the commit instant the fabric is reprogrammed first and the
        // hazard check runs after (commit()): a fault window landing
        // exactly then forces the fabric-restoring rollback path.
        if (now >= commit_at_) {
            commit(now);
            return;
        }
        // Deadline cancellation extends into staging: the staging
        // latency models the (possibly re-run, pseudo-polynomial)
        // admission test plus the parameter-path wave, so one expensive
        // transaction could otherwise hold the FIFO arbitrarily long
        // while its caller has already given up on the answer. The
        // fabric has not been touched yet, so abandoning is a pure
        // bookkeeping resolution.
        if (now > records_[staging_id_].deadline) {
            admission_record rec = records_[staging_id_];
            rec.outcome = admission_outcome::rejected_deadline_expired;
            rec.detail = "deadline " + std::to_string(rec.deadline) +
                         " expired mid-staging (now " +
                         std::to_string(now) + ")";
            rec.resolved_at = now;
            rejected_.inc();
            deadline_expired_.inc();
            staging_ = false;
            staged_selection_ = {};
            staged_tasks_.clear();
            const analysis::task_set& tasks =
                rec.client < client_tasks_.size()
                    ? client_tasks_[rec.client]
                    : analysis::task_set{};
            resolve(rec, tasks);
            return;
        }
        // Mid-flight hazard watch: a request-path SE going degraded or
        // stalled while the selectors are recomputing aborts the
        // transaction before it can land.
        std::string hazard;
        if (path_hazard(records_[staging_id_].client, &hazard)) {
            roll_back(now, "staging hazard: " + std::move(hazard),
                      /*fabric_touched=*/false);
        }
        return;
    }
    if (!queue_.empty()) {
        queued_request req = std::move(queue_.front());
        queue_.pop_front();
        start_admission(std::move(req), now);
    }
}

void reconfig_manager::donate_client_budget(std::uint32_t client) {
    const auto& shape = committed_.shape;
    fabric_
        .se_at(shape.leaf_level, shape.leaf_se_of_client(client))
        .configure_port(shape.leaf_port_of_client(client), 0, 0);
}

void reconfig_manager::restore_client_budget(std::uint32_t client) {
    const auto& shape = committed_.shape;
    const std::uint32_t order = shape.leaf_se_of_client(client);
    const std::uint32_t port = shape.leaf_port_of_client(client);
    const auto& iface = committed_.levels[shape.leaf_level][order].ports[port];
    if (iface && iface->budget > 0) {
        fabric_.se_at(shape.leaf_level, order)
            .configure_port(port, static_cast<std::uint32_t>(iface->period),
                            static_cast<std::uint32_t>(iface->budget));
    } else {
        fabric_.se_at(shape.leaf_level, order).configure_port(port, 0, 0);
    }
}

} // namespace bluescale::core
