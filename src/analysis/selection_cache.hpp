// Memoization of select_interface() results (ROADMAP item 2).
//
// select_interface reads the level utilization only through the period
// bound of its search, pi_max = min(theorem2_max_period(tasks, U_level),
// max_period), so the result is a pure function of (task set, pi_max,
// the other analysis knobs). The key holds exactly those inputs: it is
// built from the same pi_max value the search then runs on, so key and
// search cannot drift apart. Keying on the bound rather than on U_level
// is what makes the cache pay off under admission: the bound never
// exceeds the minimum task period t_min and equals it whenever the
// level slack U_level - U(tasks) is at most 0.5, so an update elsewhere
// in the level moves U_level but rarely the bound, and the untouched
// ports re-hit. Because the key is the search's full input, the cache
// needs no invalidation protocol: an entry can never go stale, only
// unused. Keys compare by value -- the task vector itself, not just a
// hash -- so a hash collision cannot silently substitute another
// subtree's interface; the hash only picks the bucket. Each entry also
// stores the sched_test_stats the original computation performed, and a
// hit replays those counters into the caller's stats, keeping the
// accumulated work totals (and therefore core::parameter_path's modeled
// selection latency) bit-identical with the cache on or off.
//
// Thread safety: the map is sharded 16 ways by key hash with one mutex
// per shard, sized for the deterministic parallel tree selection where
// sibling subtrees look up concurrently. Bounded FIFO eviction per
// shard keeps memory use proportional to the configured capacity.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "analysis/periodic_resource.hpp"
#include "analysis/rt_task.hpp"
#include "analysis/schedulability.hpp"

namespace bluescale::analysis {

struct analysis_context;

/// Full-input identity of one select_interface() call's search.
/// `period_bound` is the search's pi_max (which already folds in
/// ctx.max_period); `knobs` fingerprints every other analysis_context
/// field that can influence the result.
struct selection_key {
    task_set tasks;
    std::uint64_t period_bound = 0;
    std::uint64_t knobs = 0;

    friend bool operator==(const selection_key&,
                           const selection_key&) = default;
};

/// FNV-1a over the key's full contents; bucket placement only (equality
/// is by value).
[[nodiscard]] std::uint64_t selection_key_hash(const selection_key& key);

/// Builds the cache key for a search over periods 1..`period_bound` of
/// `tasks`, fingerprinting every other knob of `ctx` that can change the
/// result (bandwidth_tolerance, the sched test mode and work cap, and the
/// maintenance model). ctx.max_period is not fingerprinted: it reaches
/// the search only through `period_bound`.
[[nodiscard]] selection_key make_selection_key(const task_set& tasks,
                                               std::uint64_t period_bound,
                                               const analysis_context& ctx);

/// One memoized result: the selected interface (nullopt == infeasible is
/// cached too) plus the test work the original computation performed.
struct selection_entry {
    std::optional<resource_interface> iface;
    sched_test_stats work;
};

struct selection_cache_stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
};

class selection_cache {
  public:
    /// `capacity` bounds the total entry count across shards (rounded up
    /// to a multiple of the shard count).
    explicit selection_cache(std::size_t capacity = 1u << 16);

    selection_cache(const selection_cache&) = delete;
    selection_cache& operator=(const selection_cache&) = delete;

    /// Returns a copy of the entry, or nullopt on miss. Counts a hit or
    /// miss in stats().
    [[nodiscard]] std::optional<selection_entry>
    lookup(const selection_key& key);

    /// Inserts (or overwrites) the entry, evicting the oldest entry of
    /// the shard when full.
    void insert(const selection_key& key, selection_entry entry);

    [[nodiscard]] selection_cache_stats stats() const;
    [[nodiscard]] std::size_t size() const;
    void clear();

  private:
    static constexpr std::size_t k_shards = 16;

    struct key_hasher {
        std::size_t operator()(const selection_key& key) const {
            return static_cast<std::size_t>(selection_key_hash(key));
        }
    };

    struct shard {
        mutable std::mutex mu;
        std::unordered_map<selection_key, selection_entry, key_hasher> map;
        std::deque<selection_key> fifo; ///< insertion order for eviction
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
    };

    shard& shard_of(const selection_key& key);

    std::size_t shard_capacity_;
    std::array<shard, k_shards> shards_;
};

} // namespace bluescale::analysis
