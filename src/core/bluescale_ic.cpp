#include "core/bluescale_ic.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace bluescale::core {

bluescale_ic::bluescale_ic(std::uint32_t n_clients, se_params params,
                           std::string name)
    : interconnect(std::move(name), n_clients),
      shape_(analysis::make_quadtree_shape(n_clients)) {
    const std::uint32_t depth = shape_.leaf_level;
    levels_.resize(depth + 1);
    for (std::uint32_t l = 0; l <= depth; ++l) {
        const std::uint32_t count = shape_.ses_at_level(l);
        levels_[l].reserve(count);
        for (std::uint32_t y = 0; y < count; ++y) {
            levels_[l].push_back(std::make_unique<scale_element>(
                "SE(" + std::to_string(l) + "," + std::to_string(y) + ")",
                params));
            levels_[l].back()->set_tree_level(l);
        }
    }

    level_begin_.assign(depth + 2, 0);
    for (std::uint32_t l = 0; l <= depth; ++l) {
        level_begin_[l + 1] = level_begin_[l] + shape_.ses_at_level(l);
    }
    resp_q_.reserve(shape_.total_ses());
    for (std::uint32_t i = 0; i < shape_.total_ses(); ++i) {
        resp_q_.emplace_back(k_demux_buffer_depth);
    }
    resp_staged_.assign((shape_.total_ses() + 63) / 64, 0);
    resp_visible_.assign(resp_staged_.size(), 0);

    // Every SE wake bubbles up to the fabric so the simulator re-arms it
    // (client pushes reach the SE buffers directly, bypassing tick()).
    // SEs start due.
    se_flat_.reserve(shape_.total_ses());
    se_schedule_.grow_to(shape_.total_ses());
    for (auto& level : levels_) {
        for (auto& se : level) {
            se->set_wake_hook(sim::wake_of(*this));
            se_schedule_.bind(se_flat_.size(), *se);
            se_flat_.push_back(se.get());
        }
    }

    // Wire provider ports: SE(l, y) feeds port (y % 4) of SE(l-1, y/4);
    // the root feeds the memory controller. Each push first crosses the
    // SE's provider link, which an injected link fault may eat.
    link_faults_.resize(shape_.total_ses());
    levels_[0][0]->bind_sink([this] { return memory_can_accept(); },
                             [this](mem_request r) {
                                 if (link_faults_[0].active(now_)) {
                                     note_dropped();
                                     return;
                                 }
                                 forward_to_memory(now_, std::move(r));
                             });
    for (std::uint32_t l = 1; l <= depth; ++l) {
        for (std::uint32_t y = 0; y < levels_[l].size(); ++y) {
            scale_element* parent =
                levels_[l - 1][analysis::quadtree_shape::parent_order(y)]
                    .get();
            const std::uint32_t port =
                analysis::quadtree_shape::parent_port(y);
            const std::uint32_t link_idx = se_linear_index(l, y);
            levels_[l][y]->bind_sink(
                [parent, port] { return parent->port_can_accept(port); },
                [this, parent, port, link_idx](mem_request r) {
                    if (link_faults_[link_idx].active(now_)) {
                        note_dropped();
                        return;
                    }
                    parent->port_push(port, std::move(r));
                });
        }
    }
}

void bluescale_ic::inject_campaign(const sim::fault_campaign& campaign) {
    const std::uint32_t n = shape_.total_ses();
    std::vector<std::vector<sim::fault_event>> stall(n);
    std::vector<std::vector<sim::fault_event>> drop(n);
    for (const auto& e : campaign.events()) {
        if (e.kind == sim::fault_kind::se_stall) {
            stall[e.target % n].push_back(e);
        } else if (e.kind == sim::fault_kind::link_drop) {
            drop[e.target % n].push_back(e);
        }
    }
    std::uint32_t idx = 0;
    for (auto& level : levels_) {
        for (auto& se : level) {
            se->set_stall_faults(sim::fault_window(std::move(stall[idx])));
            link_faults_[idx] = sim::fault_window(std::move(drop[idx]));
            ++idx;
        }
    }
}

void bluescale_ic::bind_observability(obs::registry& reg,
                                      obs::trace_sink* sink) {
    for (std::uint32_t l = 0; l <= shape_.leaf_level; ++l) {
        for (std::uint32_t y = 0; y < shape_.ses_at_level(l); ++y) {
            const std::string prefix =
                "se." + std::to_string(l) + "." + std::to_string(y);
            levels_[l][y]->bind_observability(
                reg, prefix,
                sink != nullptr ? sink->register_component(prefix)
                                : obs::tracer{});
        }
    }
}

void bluescale_ic::configure(const analysis::tree_selection& selection) {
    assert(selection.shape.leaf_level == shape_.leaf_level);
    for (std::uint32_t l = 0; l < selection.levels.size(); ++l) {
        for (std::uint32_t y = 0; y < selection.levels[l].size(); ++y) {
            for (std::uint32_t p = 0; p < analysis::k_se_fanin; ++p) {
                const auto& iface = selection.levels[l][y].ports[p];
                if (iface && iface->budget > 0) {
                    levels_[l][y]->configure_port(
                        p, static_cast<std::uint32_t>(iface->period),
                        static_cast<std::uint32_t>(iface->budget));
                } else {
                    levels_[l][y]->configure_port(p, 0, 0);
                }
            }
        }
    }
}

bool bluescale_ic::client_can_accept(client_id_t c) const {
    return leaf_of(c).port_can_accept(shape_.leaf_port_of_client(c));
}

void bluescale_ic::client_push(client_id_t c, mem_request r) {
    note_injected();
    leaf_of(c).port_push(shape_.leaf_port_of_client(c), std::move(r));
}

std::uint32_t bluescale_ic::depth_of(client_id_t) const {
    return shape_.leaf_level + 1;
}

void bluescale_ic::push_response(std::uint32_t i, mem_request r) {
    resp_q_[i].push(std::move(r));
    resp_staged_[i / 64] |= std::uint64_t{1} << (i % 64);
}

void bluescale_ic::tick_response_network(cycle_t now) {
    // Pull finished transactions into the root SE's response port.
    while (resp_q_[0].can_push() && memory_has_response()) {
        push_response(0, pop_memory_response());
        ++resp_in_network_;
    }

    // Each SE with a visible response forwards one per cycle down its
    // demux, level-major. Forwarded responses are staged at the child
    // and only become visible at commit, so each word can be walked
    // from a snapshot.
    const std::uint32_t depth = shape_.leaf_level;
    std::uint32_t l = 0;
    for (std::size_t w = 0; w < resp_visible_.size(); ++w) {
        for (std::uint64_t bits = resp_visible_[w]; bits != 0;
             bits &= bits - 1) {
            const auto i = static_cast<std::uint32_t>(
                w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
            while (i >= level_begin_[l + 1]) ++l;
            auto& q = resp_q_[i];
            if (l == depth) {
                // Leaf demux: hand the response to the client port.
                mem_request r = q.pop();
                --resp_in_network_;
                r.complete_cycle = now;
                deliver_response_now(std::move(r));
            } else {
                const std::uint32_t port = response_port(l, q.front().client);
                const std::uint32_t child =
                    level_begin_[l + 1] +
                    analysis::quadtree_shape::child_order(
                        i - level_begin_[l], port);
                if (!resp_q_[child].can_push()) continue;
                push_response(child, q.pop());
            }
            if (q.empty()) resp_visible_[w] &= ~(bits & (~bits + 1));
        }
    }
}

void bluescale_ic::tick(cycle_t now) {
    now_ = now;
    // Selective SE walk: the simulator's wake schedule, one level down.
    // An element that is not due would tick as a pure no-op (its own
    // next_event() said so, and anything that changed since then fired a
    // wake), so skipping it is exact. Lockstep ticks everything and skips
    // the horizon bookkeeping.
    if (!selective_) {
        for (scale_element* se : se_flat_) se->tick(now);
    } else {
        se_schedule_.sweep(now, [this, now](std::size_t i) {
            scale_element* se = se_flat_[i];
            se->tick(now);
            return se->next_event(now);
        });
    }
    // A provable no-op with nothing to pull and nothing en route.
    if (memory_has_response() || resp_in_network_ > 0) {
        tick_response_network(now);
    }
}

void bluescale_ic::commit() {
    if (!selective_) {
        for (scale_element* se : se_flat_) se->commit();
    } else {
        // An element that ticked, or was woken after its turn in the walk
        // (e.g. a child staged a push into its buffers this cycle), may
        // hold staged pushes; every other element's edge is a no-op.
        se_schedule_.for_each_ticked_or_due(
            [this](std::size_t i) { se_flat_[i]->commit(); });
    }
    for (std::size_t w = 0; w < resp_staged_.size(); ++w) {
        for (std::uint64_t bits = resp_staged_[w]; bits != 0;
             bits &= bits - 1) {
            resp_q_[w * 64 + static_cast<std::size_t>(
                                 std::countr_zero(bits))].commit();
        }
        resp_visible_[w] |= resp_staged_[w];
        resp_staged_[w] = 0;
    }
}

cycle_t bluescale_ic::next_event(cycle_t now) const {
    // Request path: the earliest SE wakeup (the same schedule the
    // selective walk in tick() runs). Requests parked at the memory
    // controller hold no SE awake; their responses re-arm the fabric via
    // the attach_memory() wake.
    cycle_t due = se_schedule_.next_due();
    // Response path: the demux network forwards one response per SE per
    // cycle while anything is en route.
    if (memory_has_response() || resp_in_network_ > 0) {
        due = std::min(due, now + 1);
    }
    return due;
}

void bluescale_ic::reset() {
    interconnect::reset();
    now_ = 0;
    resp_in_network_ = 0;
    se_schedule_.clear_ticked();
    for (auto& w : link_faults_) w.reset();
    for (auto& level : levels_) {
        for (auto& se : level) se->reset();
    }
    for (auto& q : resp_q_) q.clear();
    std::fill(resp_staged_.begin(), resp_staged_.end(), 0);
    std::fill(resp_visible_.begin(), resp_visible_.end(), 0);
}

} // namespace bluescale::core
