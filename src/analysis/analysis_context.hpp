// Unified configuration for the analysis stack (ROADMAP item 2).
//
// One struct carries every knob a caller can turn -- schedulability test
// configuration (including the optional work counters), the interface
// selection search bounds, the shared selection cache, and the
// parallelism degree -- so `schedulability`, `interface_selection`,
// `tree_analysis` and `core::reconfig_manager` (and through it
// `svc::analysis_service`) all thread the SAME context instead of growing
// parallel default-arg chains. The cheap-first ladder plus the exact
// test's abort budget is the stack's one precision-degradation
// mechanism; no knob here selects the sufficient portfolio alone (that is
// is_schedulable_sufficient, a direct entry for tests and benchmarks). A
// default-constructed context reproduces the paper-faithful serial
// exact-test behaviour bit-for-bit.
#pragma once

#include <cstdint>

#include "analysis/schedulability.hpp"

namespace bluescale::analysis {

class selection_cache;

struct analysis_context {
    /// Hard cap on candidate periods enumerated by select_interface
    /// (Theorem 2's range can be huge when the rest of the level is
    /// almost idle).
    std::uint64_t max_period = 1u << 16;
    /// Extension beyond the paper: accept up to this much extra bandwidth
    /// over the true minimum in exchange for the largest feasible period.
    /// 0 (the paper-faithful default) selects the strict minimum. A small
    /// tolerance counters compositional inflation: a child interface with
    /// a tiny period forces its parent to supply very frequently (the
    /// sbf-blackout constraint), so each level of strict minimization
    /// inflates total bandwidth by ~7-10%; trading a few percent at the
    /// leaves relaxes every level above (see bench/acceptance_ratio).
    double bandwidth_tolerance = 0.0;
    /// Schedulability test knobs, including the cheap-first ladder switch
    /// and the optional sched_test_stats work counters.
    sched_test_config sched = {};
    /// Optional memoization of select_interface results, keyed on the
    /// full input of the period search: the task set, its period bound
    /// min(theorem2_max_period, max_period) -- the only way the level
    /// utilization reaches the search -- and the other analysis knobs. May
    /// be shared across whole-tree selection, incremental reselection and
    /// the analysis service; nullptr disables caching. Selected
    /// interfaces and accumulated work counters are bit-identical with
    /// the cache on or off (a hit replays the cached work counters, so it
    /// saves host time but not modeled time -- the analysis service keeps
    /// its own cache of whole evaluations for that).
    selection_cache* cache = nullptr;
    /// Worker threads for per-subtree parallel selection in
    /// select_tree_interfaces. Sibling subtrees below the root bandwidth
    /// check are independent, and results are merged in subtree index
    /// order, so the selection is bit-identical for any value. 0 means
    /// hardware concurrency; 1 (the default) stays serial.
    unsigned threads = 1;
};

} // namespace bluescale::analysis
