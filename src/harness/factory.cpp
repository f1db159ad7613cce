#include "harness/factory.hpp"

#include <algorithm>

#include "core/bluescale_ic.hpp"
#include "interconnect/axi_hyperconnect.hpp"
#include "interconnect/axi_icrt.hpp"
#include "interconnect/bluetree.hpp"
#include "interconnect/gsmtree.hpp"

namespace bluescale::harness {

const char* kind_name(ic_kind kind) {
    switch (kind) {
    case ic_kind::axi_icrt: return "AXI-IC^RT";
    case ic_kind::bluetree: return "BlueTree";
    case ic_kind::bluetree_smooth: return "BlueTree-Smooth";
    case ic_kind::gsmtree_tdm: return "GSMTree-TDM";
    case ic_kind::gsmtree_fbsp: return "GSMTree-FBSP";
    case ic_kind::bluescale: return "BlueScale";
    case ic_kind::axi_hyperconnect: return "AXI-HyperConnect";
    }
    return "?";
}

hwcost::design to_design(ic_kind kind) {
    switch (kind) {
    case ic_kind::axi_icrt: return hwcost::design::axi_icrt;
    case ic_kind::bluetree: return hwcost::design::bluetree;
    case ic_kind::bluetree_smooth: return hwcost::design::bluetree_smooth;
    case ic_kind::gsmtree_tdm:
    case ic_kind::gsmtree_fbsp: return hwcost::design::gsmtree;
    case ic_kind::bluescale: return hwcost::design::bluescale;
    case ic_kind::axi_hyperconnect:
        // No Table-1 anchor of its own; structurally a centralized
        // crossbar, so it shares AXI-IC^RT's cost/fmax model.
        return hwcost::design::axi_icrt;
    }
    return hwcost::design::bluescale;
}

std::unique_ptr<interconnect>
make_interconnect(ic_kind kind, const ic_build_options& opts) {
    const std::uint32_t n = opts.n_clients;
    switch (kind) {
    case ic_kind::axi_icrt: {
        axi_icrt_config cfg;
        cfg.arb_latency = axi_icrt::default_arb_latency(n);
        auto ic = std::make_unique<axi_icrt>(n, cfg);
        // "Allocating memory bandwidth to a client based on its workload"
        // [11]: reserve each client's utilization plus headroom.
        if (!opts.client_utilizations.empty()) {
            for (std::uint32_t c = 0; c < n; ++c) {
                const double share =
                    std::min(1.0, opts.client_utilizations[c] * 1.25);
                ic->set_client_share(c, share);
            }
        }
        return ic;
    }
    case ic_kind::bluetree: {
        bluetree_config cfg;
        cfg.alpha = opts.bluetree_alpha;
        return std::make_unique<bluetree>(n, cfg);
    }
    case ic_kind::bluetree_smooth: {
        bluetree_config cfg;
        cfg.alpha = opts.bluetree_alpha;
        cfg.queue_depth = 8;
        cfg.smooth_depth = 4;
        return std::make_unique<bluetree>(n, cfg, "bluetree_smooth");
    }
    case ic_kind::gsmtree_tdm: {
        gsmtree_config cfg;
        cfg.slot_cycles = opts.unit_cycles;
        cfg.reservation = gsm_reservation::tdm;
        return std::make_unique<gsmtree>(n, cfg, "gsmtree_tdm");
    }
    case ic_kind::gsmtree_fbsp: {
        gsmtree_config cfg;
        cfg.slot_cycles = opts.unit_cycles;
        cfg.reservation = gsm_reservation::fbsp;
        cfg.client_weights = opts.client_utilizations;
        if (cfg.client_weights.empty()) {
            cfg.client_weights.assign(n, 1.0);
        }
        return std::make_unique<gsmtree>(n, cfg, "gsmtree_fbsp");
    }
    case ic_kind::axi_hyperconnect: {
        axi_hyperconnect_config cfg;
        return std::make_unique<axi_hyperconnect>(n, cfg);
    }
    case ic_kind::bluescale: {
        core::se_params se;
        se.unit_cycles = opts.unit_cycles;
        auto ic = std::make_unique<core::bluescale_ic>(n, se);
        if (opts.selection != nullptr && opts.selection->feasible) {
            ic->configure(*opts.selection);
        }
        return ic;
    }
    }
    return nullptr;
}

} // namespace bluescale::harness
