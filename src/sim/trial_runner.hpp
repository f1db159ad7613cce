// Deterministic parallel execution of independent experiment trials.
//
// Every experiment in the repo runs N independent trials of a closed
// system model; the trials share no state (each one seeds its own rng
// from the trial index), so they parallelize embarrassingly. The runner
// fans trial indices out over a fixed-size thread pool and returns the
// per-trial results *in trial order*, so downstream aggregation sees the
// exact sequence a serial loop would have produced: output is
// bit-identical for 1 thread and N threads as long as the trial function
// itself is deterministic per index.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/profile.hpp"
#include "obs/registry.hpp"

namespace bluescale::sim {

/// Worker count for a requested thread setting: 0 means "all hardware
/// threads"; anything else is taken literally. Never returns 0.
[[nodiscard]] unsigned resolve_threads(unsigned requested);

/// Calls fn(0) .. fn(n - 1), each exactly once, on at most `threads`
/// workers. Indices are claimed from a shared counter, so completion
/// order is unspecified -- callers needing ordered results should use
/// trial_runner::run. `fn` must be safe to call concurrently for
/// different indices. With `threads` <= 1 the calls happen inline on the
/// calling thread, in index order. If an invocation throws, the first
/// exception is rethrown after all workers stop; remaining indices may
/// never run.
void for_each_trial(std::uint32_t n, unsigned threads,
                    const std::function<void(std::uint32_t)>& fn);

/// Executes N independent trials on a fixed-size thread pool.
class trial_runner {
public:
    /// `threads` follows resolve_threads(): 0 = all hardware threads.
    explicit trial_runner(unsigned threads = 1)
        : threads_(resolve_threads(threads)) {}

    [[nodiscard]] unsigned threads() const { return threads_; }

    /// Opt-in sweep profiling: every subsequent run() adds its
    /// wall time and trial count to profile-flagged counters in `reg`
    /// ("profile/sweep/runs", "profile/sweep/trials",
    /// "profile/sweep/wall_ns"). Callers derive cycles-per-wall-second
    /// from these plus their own simulated-cycle count.
    void profile_to(obs::registry& reg) {
        prof_runs_ = reg.make_counter("profile/sweep/runs",
                                      obs::k_metric_profile);
        prof_trials_ = reg.make_counter("profile/sweep/trials",
                                        obs::k_metric_profile);
        prof_wall_ns_ = reg.make_counter("profile/sweep/wall_ns",
                                         obs::k_metric_profile);
    }

    /// Runs `fn(t)` for every trial t in [0, n_trials) and returns the
    /// results indexed by trial: out[t] == fn(t) regardless of thread
    /// count or scheduling. Aggregating out[0], out[1], ... in order is
    /// therefore bit-identical to the serial loop. The result type must
    /// be movable; `fn` must not depend on shared mutable state.
    template <typename Fn>
    [[nodiscard]] auto run(std::uint32_t n_trials, Fn&& fn) const
        -> std::vector<std::invoke_result_t<Fn&, std::uint32_t>> {
        using result_type = std::invoke_result_t<Fn&, std::uint32_t>;
        static_assert(!std::is_void_v<result_type>,
                      "use for_each_trial for trial functions without "
                      "results");
        std::vector<std::optional<result_type>> slots(n_trials);
        const obs::stopwatch sweep_watch;
        for_each_trial(n_trials, threads_,
                       [&](std::uint32_t t) { slots[t].emplace(fn(t)); });
        record_sweep(n_trials, sweep_watch.ns());
        std::vector<result_type> out;
        out.reserve(n_trials);
        for (auto& slot : slots) out.push_back(std::move(*slot));
        return out;
    }

private:
    void record_sweep(std::uint32_t trials, std::uint64_t wall_ns) const {
        prof_runs_.inc();
        prof_trials_.inc(trials);
        prof_wall_ns_.inc(wall_ns);
    }

    unsigned threads_;
    /// Unbound (no-op) until profile_to(); mutable because profiling a
    /// const sweep is observation, not mutation of the runner's contract.
    mutable obs::counter prof_runs_;
    mutable obs::counter prof_trials_;
    mutable obs::counter prof_wall_ns_;
};

} // namespace bluescale::sim
