#include "analysis/selection_cache.hpp"

#include <bit>
#include <utility>

#include "analysis/analysis_context.hpp"

namespace bluescale::analysis {

namespace {

constexpr std::uint64_t k_fnv_offset = 0xcbf29ce484222325ull;
constexpr std::uint64_t k_fnv_prime = 0x100000001b3ull;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= k_fnv_prime;
    }
    return h;
}

} // namespace

std::uint64_t selection_key_hash(const selection_key& key) {
    std::uint64_t h = k_fnv_offset;
    h = fnv_mix(h, key.tasks.size());
    for (const rt_task& t : key.tasks) {
        h = fnv_mix(h, t.period);
        h = fnv_mix(h, t.wcet);
    }
    h = fnv_mix(h, key.period_bound);
    h = fnv_mix(h, key.knobs);
    return h;
}

selection_key make_selection_key(const task_set& tasks,
                                 std::uint64_t period_bound,
                                 const analysis_context& ctx) {
    selection_key key;
    key.tasks = tasks;
    key.period_bound = period_bound;

    std::uint64_t k = k_fnv_offset;
    k = fnv_mix(k, std::bit_cast<std::uint64_t>(ctx.bandwidth_tolerance));
    k = fnv_mix(k, ctx.sched.max_test_points);
    k = fnv_mix(k, static_cast<std::uint64_t>(ctx.sched.cheap_first));
    k = fnv_mix(k, ctx.sched.maintenance.ops.size());
    for (const maintenance_op& op : ctx.sched.maintenance.ops) {
        k = fnv_mix(k, op.period);
        k = fnv_mix(k, op.cost);
    }
    key.knobs = k;
    return key;
}

selection_cache::selection_cache(std::size_t capacity)
    : shard_capacity_((capacity + k_shards - 1) / k_shards) {
    if (shard_capacity_ == 0) shard_capacity_ = 1;
}

selection_cache::shard& selection_cache::shard_of(const selection_key& key) {
    return shards_[selection_key_hash(key) % k_shards];
}

std::optional<selection_entry>
selection_cache::lookup(const selection_key& key) {
    shard& s = shard_of(key);
    const std::lock_guard<std::mutex> lock(s.mu);
    const auto it = s.map.find(key);
    // detlint:allow(unordered-iter): point lookup via find(), no iteration
    if (it == s.map.end()) {
        ++s.misses;
        return std::nullopt;
    }
    ++s.hits;
    return it->second;
}

void selection_cache::insert(const selection_key& key,
                             selection_entry entry) {
    shard& s = shard_of(key);
    const std::lock_guard<std::mutex> lock(s.mu);
    const auto it = s.map.find(key);
    // detlint:allow(unordered-iter): point lookup via find(), no iteration
    if (it != s.map.end()) {
        it->second = std::move(entry);
        return;
    }
    while (s.map.size() >= shard_capacity_ && !s.fifo.empty()) {
        s.map.erase(s.fifo.front());
        s.fifo.pop_front();
        ++s.evictions;
    }
    s.fifo.push_back(key);
    s.map.emplace(key, std::move(entry));
}

selection_cache_stats selection_cache::stats() const {
    selection_cache_stats out;
    for (const shard& s : shards_) {
        const std::lock_guard<std::mutex> lock(s.mu);
        out.hits += s.hits;
        out.misses += s.misses;
        out.evictions += s.evictions;
    }
    return out;
}

std::size_t selection_cache::size() const {
    std::size_t n = 0;
    for (const shard& s : shards_) {
        const std::lock_guard<std::mutex> lock(s.mu);
        n += s.map.size();
    }
    return n;
}

void selection_cache::clear() {
    for (shard& s : shards_) {
        const std::lock_guard<std::mutex> lock(s.mu);
        s.map.clear();
        s.fifo.clear();
    }
}

} // namespace bluescale::analysis
