// BlueScale memory interconnect (paper Sec. 3, Fig. 2(a)/(d)): a quadtree
// of isomorphic Scale Elements between the clients (leaves) and the shared
// memory sub-system (root). Each SE needs only local information, yet the
// per-SE compositional schedulers together guarantee system-wide real-time
// performance once the interface selection (Sec. 5) has programmed every
// server task. Responses return through each SE's DeMux (Fig. 2(b)), one
// per SE per cycle, into bounded per-child buffers with backpressure.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/quadtree.hpp"
#include "analysis/tree_analysis.hpp"
#include "core/scale_element.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "interconnect/interconnect.hpp"
#include "sim/wake_schedule.hpp"

namespace bluescale::core {

class bluescale_ic : public interconnect {
public:
    /// Per-SE response buffer depth of the demux network.
    static constexpr std::size_t k_demux_buffer_depth = 4;

    /// Every SE runs `params`.
    bluescale_ic(std::uint32_t n_clients, se_params params = {},
                 std::string name = "bluescale");

    /// Programs every SE's server tasks from a resolved interface
    /// selection (analysis::select_tree_interfaces). Ports whose selection
    /// is missing or zero-bandwidth are disabled.
    void configure(const analysis::tree_selection& selection);

    [[nodiscard]] bool client_can_accept(client_id_t c) const override;
    void client_push(client_id_t c, mem_request r) override;
    [[nodiscard]] std::uint32_t depth_of(client_id_t c) const override;
    bool bind_client_drain(client_id_t c, sim::wake_hook hook) override {
        leaf_of(c).set_port_drain_hook(shape_.leaf_port_of_client(c), hook);
        return true;
    }

    void tick(cycle_t now) override;
    void commit() override;
    void reset() override;

    /// Event-engine horizon: per-cycle while transactions are in flight
    /// (request arbitration, the response network, and the root link all
    /// move every cycle); otherwise the earliest SE wakeup -- a quiescent
    /// tree sleeps until a client push or a scheduled SE stall window.
    [[nodiscard]] cycle_t next_event(cycle_t now) const override;

    /// The SE walk inside tick() runs the simulator's wake schedule one
    /// level down (sim::wake_schedule over the SEs, level-major): only
    /// elements that are due tick -- exact by the same argument as the
    /// engine's, and active in both engines. The testbench switches it
    /// off under BLUESCALE_LOCKSTEP so the fallback engine is a true
    /// tick-everything reference.
    void set_selective_ticking(bool on) { selective_ = on; }

    /// Re-homes every SE's counters into `reg` ("se.<level>.<order>/...")
    /// and registers one trace stream per element on `sink` (nullptr
    /// leaves the elements' tracers unbound); call before the trial
    /// starts.
    void bind_observability(obs::registry& reg, obs::trace_sink* sink);

    /// Distributes a campaign over the fabric: se_stall events go to the
    /// targeted SE's stall window, link_drop events to the targeted SE's
    /// provider link (index 0 = root SE -> memory). Targets use the
    /// level-major linear numbering of se_linear_index(); out-of-range
    /// targets wrap modulo total_ses().
    void inject_campaign(const sim::fault_campaign& campaign) override;

    /// Level-major linear SE numbering shared by fault targeting and the
    /// health monitor: root is 0, then level 1 left-to-right, and so on.
    [[nodiscard]] std::uint32_t se_linear_index(std::uint32_t level,
                                               std::uint32_t order) const {
        return level_begin_[level] + order;
    }

    [[nodiscard]] const analysis::quadtree_shape& shape() const {
        return shape_;
    }
    [[nodiscard]] std::uint32_t total_ses() const {
        return shape_.total_ses();
    }
    [[nodiscard]] const scale_element& se_at(std::uint32_t level,
                                             std::uint32_t order) const {
        return *levels_[level][order];
    }
    [[nodiscard]] scale_element& se_at(std::uint32_t level,
                                       std::uint32_t order) {
        return *levels_[level][order];
    }

private:
    [[nodiscard]] scale_element& leaf_of(client_id_t c) {
        return *levels_.back()[shape_.leaf_se_of_client(c)];
    }
    [[nodiscard]] const scale_element& leaf_of(client_id_t c) const {
        return *levels_.back()[shape_.leaf_se_of_client(c)];
    }

    /// Child port of SE(level, ·) on client c's path (the demux select).
    [[nodiscard]] std::uint32_t
    response_port(std::uint32_t level, client_id_t c) const {
        std::uint32_t shift = shape_.leaf_level - level;
        std::uint32_t divisor = 1;
        while (shift-- > 0) divisor *= analysis::k_se_fanin;
        return (c / divisor) % analysis::k_se_fanin;
    }

    /// Demux-network step: move responses one SE hop toward the clients.
    void tick_response_network(cycle_t now);
    /// Stages `r` at flat response port `i`.
    void push_response(std::uint32_t i, mem_request r);

    analysis::quadtree_shape shape_;
    /// level_begin_[l]: se_linear_index(l, 0); one past the leaf level
    /// holds total_ses().
    std::vector<std::uint32_t> level_begin_;
    /// Clock latched at tick() entry so the SE sink lambdas (which have
    /// no time argument) can evaluate link-fault windows.
    cycle_t now_ = 0;
    bool selective_ = true;
    /// Responses inside resp_q_ (visible + staged): incremented when the
    /// root pulls a completion from the memory, decremented at leaf
    /// delivery. Gates the response-network walk in both engines (a
    /// provable no-op at zero).
    std::uint64_t resp_in_network_ = 0;
    /// Per-SE provider-link drop windows, indexed by se_linear_index.
    std::vector<sim::fault_window> link_faults_;
    /// levels_[l][y] owns SE(l, y); level 0 is the root.
    std::vector<std::vector<std::unique_ptr<scale_element>>> levels_;
    /// Level-major flat view of every SE; slot i of se_schedule_ is
    /// se_flat_[i] (each SE's wake() is bound into it).
    std::vector<scale_element*> se_flat_;
    sim::wake_schedule se_schedule_;
    /// Level-major flat response ports (paper Fig. 2(b)'s DeMux):
    /// resp_q_[i] holds the responses waiting at SE i's provider-side
    /// response port. The bitsets mark ports with staged pushes (to
    /// commit) and with visible responses (to forward), so the commit
    /// and the demux walk touch only non-empty ports, in level-major
    /// order.
    std::vector<latched_queue<mem_request>> resp_q_;
    std::vector<std::uint64_t> resp_staged_;
    std::vector<std::uint64_t> resp_visible_;
};

} // namespace bluescale::core
