#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "analysis/interface_selection.hpp"
#include "analysis/selection_cache.hpp"
#include "analysis/tree_analysis.hpp"
#include "sim/rng.hpp"

namespace bluescale::analysis {
namespace {

std::vector<task_set> random_clients(std::uint64_t seed, std::uint32_t n) {
    rng r(seed);
    std::vector<task_set> clients(n);
    for (auto& s : clients) {
        const std::uint64_t period = 100 + r.uniform_u64(0, 400);
        s.push_back({period, 1 + r.uniform_u64(0, period / 25)});
    }
    return clients;
}

TEST(selection_cache, hit_is_bit_identical_to_the_uncached_call) {
    const task_set tasks{{50, 5}, {100, 10}, {200, 20}};

    sched_test_stats plain_work;
    analysis_context plain;
    plain.sched.stats = &plain_work;
    const auto expected = select_interface(tasks, 0.8, plain);

    selection_cache cache;
    sched_test_stats miss_work, hit_work;
    analysis_context ctx;
    ctx.cache = &cache;
    ctx.sched.stats = &miss_work;
    const auto first = select_interface(tasks, 0.8, ctx);
    ctx.sched.stats = &hit_work;
    const auto second = select_interface(tasks, 0.8, ctx);

    EXPECT_EQ(first, expected);
    EXPECT_EQ(second, expected);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);

    // The hit replays the original work counters: identical totals, only
    // the hit/miss split differs.
    EXPECT_EQ(miss_work.tests_run, plain_work.tests_run);
    EXPECT_EQ(miss_work.points_checked, plain_work.points_checked);
    EXPECT_EQ(hit_work.tests_run, miss_work.tests_run);
    EXPECT_EQ(hit_work.points_checked, miss_work.points_checked);
    EXPECT_EQ(miss_work.cache_misses, 1u);
    EXPECT_EQ(hit_work.cache_hits, 1u);
    EXPECT_EQ(hit_work.cache_misses, 0u);
}

TEST(selection_cache, infeasibility_is_cached_too) {
    selection_cache cache;
    analysis_context ctx;
    ctx.cache = &cache;
    EXPECT_EQ(select_interface({{10, 11}}, 1.1, ctx), std::nullopt);
    EXPECT_EQ(select_interface({{10, 11}}, 1.1, ctx), std::nullopt);
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(selection_cache, tree_selection_identical_with_cache_on_or_off) {
    const auto clients = random_clients(42, 16);

    sched_test_stats off_work;
    analysis_context off;
    off.sched.stats = &off_work;
    const auto base = select_tree_interfaces(clients, off);

    selection_cache cache;
    sched_test_stats on_work;
    analysis_context on;
    on.cache = &cache;
    on.sched.stats = &on_work;
    const auto cached = select_tree_interfaces(clients, on);

    EXPECT_EQ(cached.feasible, base.feasible);
    EXPECT_EQ(cached.failure, base.failure);
    EXPECT_EQ(cached.root_bandwidth, base.root_bandwidth);
    for (std::uint32_t l = 0; l < base.levels.size(); ++l) {
        for (std::uint32_t y = 0; y < base.levels[l].size(); ++y) {
            for (std::uint32_t p = 0; p < 4; ++p) {
                EXPECT_EQ(cached.levels[l][y].ports[p],
                          base.levels[l][y].ports[p]);
            }
        }
    }
    // Work totals replay identically; only the hit/miss counters differ.
    EXPECT_EQ(on_work.tests_run, off_work.tests_run);
    EXPECT_EQ(on_work.points_checked, off_work.points_checked);
    EXPECT_EQ(off_work.cache_hits + off_work.cache_misses, 0u);
    EXPECT_EQ(on_work.cache_hits + on_work.cache_misses,
              cache.stats().hits + cache.stats().misses);
}

TEST(selection_cache, analysis_knobs_are_part_of_the_key) {
    // U = 0.2 and t_min = 50: Theorem 2's bound is 50 / (2 (u - 0.2)),
    // clamped to t_min, so every u <= 0.7 searches periods 1..50.
    const task_set tasks{{50, 5}, {100, 10}};
    selection_cache cache;
    analysis_context ctx;
    ctx.cache = &cache;
    (void)select_interface(tasks, 0.5, ctx);

    // Same tasks, different knobs: each variant must miss (a hit would
    // hand back a result computed under different rules).
    analysis_context capped = ctx;
    capped.max_period = 7;
    (void)select_interface(tasks, 0.5, capped);

    analysis_context tolerant = ctx;
    tolerant.bandwidth_tolerance = 0.10;
    (void)select_interface(tasks, 0.5, tolerant);

    analysis_context maintained = ctx;
    maintained.sched.maintenance.ops.push_back({1000, 40});
    (void)select_interface(tasks, 0.5, maintained);

    analysis_context laddered = ctx;
    laddered.sched.cheap_first = true;
    (void)select_interface(tasks, 0.5, laddered);

    // A utilization that moves the period bound (slack 0.7 -> 35) is a
    // different key as well.
    (void)select_interface(tasks, 0.9, ctx);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 6u);
    EXPECT_EQ(cache.size(), 6u);

    // One that leaves the bound at t_min is the same search: it hits and
    // returns exactly what the uncached call computes, work included.
    sched_test_stats plain_work, hit_work;
    analysis_context plain;
    plain.sched.stats = &plain_work;
    analysis_context counted = ctx;
    counted.sched.stats = &hit_work;
    EXPECT_EQ(select_interface(tasks, 0.6, counted),
              select_interface(tasks, 0.6, plain));
    EXPECT_EQ(hit_work.cache_hits, 1u);
    EXPECT_EQ(hit_work.tests_run, plain_work.tests_run);
    EXPECT_EQ(hit_work.points_checked, plain_work.points_checked);

    // max_period reaches the search only through the bound: two caps at
    // or above t_min share the uncapped entry.
    analysis_context at_t_min = ctx;
    at_t_min.max_period = 50;
    (void)select_interface(tasks, 0.5, at_t_min);
    analysis_context wide = ctx;
    wide.max_period = 1000;
    (void)select_interface(tasks, 0.5, wide);

    EXPECT_EQ(cache.stats().hits, 3u);
    EXPECT_EQ(cache.stats().misses, 6u);
    EXPECT_EQ(cache.size(), 6u);
}

TEST(selection_cache, capacity_bounds_entries_with_fifo_eviction) {
    selection_cache cache(16); // one entry per shard
    analysis_context ctx;
    ctx.cache = &cache;
    for (std::uint64_t p = 100; p < 200; ++p) {
        (void)select_interface({{p, 1}}, 0.5, ctx);
    }
    EXPECT_LE(cache.size(), 16u);
    EXPECT_GT(cache.stats().evictions, 0u);
    // An evicted key recomputes (miss), not a wrong hit.
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(selection_cache, committed_update_needs_no_invalidation) {
    // The cache key is the FULL input of select_interface's search, so a
    // committed reconfiguration cannot stale an entry: the changed client
    // resolves under a different key (a miss), untouched subtrees re-hit
    // their old keys, and the entries those hits return are still exactly
    // what an uncached selection would compute.
    auto clients = random_clients(7, 16);
    selection_cache cache;
    analysis_context ctx;
    ctx.cache = &cache;

    auto sel = select_tree_interfaces(clients, ctx);
    ASSERT_TRUE(sel.feasible);

    auto update =
        evaluate_client_update(sel, clients, 3, task_set{{400, 8}}, ctx);
    apply_client_update(std::move(update), sel, clients);

    // Post-commit, a fresh uncached selection agrees with a fully cached
    // one: nothing the commit changed can be served stale.
    const auto cached = select_tree_interfaces(clients, ctx);
    const auto fresh = select_tree_interfaces(clients);
    EXPECT_EQ(cached.feasible, fresh.feasible);
    EXPECT_EQ(cached.root_bandwidth, fresh.root_bandwidth);
    for (std::uint32_t l = 0; l < fresh.levels.size(); ++l) {
        for (std::uint32_t y = 0; y < fresh.levels[l].size(); ++y) {
            for (std::uint32_t p = 0; p < 4; ++p) {
                EXPECT_EQ(cached.levels[l][y].ports[p],
                          fresh.levels[l][y].ports[p]);
            }
        }
    }
}

/// A random task set of 1-4 tasks whose periods are pairwise
/// non-harmonic (no period divides another).
task_set random_non_harmonic_tasks(rng& r) {
    const auto n = r.uniform_u64(1, 4);
    task_set tasks;
    while (tasks.size() < n) {
        const std::uint64_t period = r.uniform_u64(12, 90);
        const bool harmonic = std::any_of(
            tasks.begin(), tasks.end(), [&](const rt_task& t) {
                return t.period % period == 0 || period % t.period == 0;
            });
        if (harmonic) continue;
        tasks.push_back({period, r.uniform_u64(1, period / 8)});
    }
    return tasks;
}

TEST(selection_cache, period_bound_key_is_exact) {
    // One cache shared by every call below; each cached call must return
    // what the uncached call computes, interface and work alike, whether
    // it hits or misses.
    rng r(0x5E1EC7ull);
    selection_cache cache;
    maintenance_model refresh;
    refresh.ops.push_back({200, 3});
    for (int set = 0; set < 40; ++set) {
        const task_set tasks = random_non_harmonic_tasks(r);
        const double u = utilization(tasks);
        const std::uint64_t t_min = min_period(tasks);
        // Level slack on both sides of 0.5: below it the bound is t_min,
        // above it Theorem 2 tightens it.
        const double u_levels[] = {u + r.uniform_real(0.0, 0.5),
                                   u + r.uniform_real(0.0, 0.5),
                                   u + r.uniform_real(0.5, 1.5),
                                   u + r.uniform_real(0.5, 1.5)};
        const std::uint64_t caps[] = {r.uniform_u64(1, t_min - 1),
                                      t_min + r.uniform_u64(0, 100)};
        for (const double u_level : u_levels) {
            for (const std::uint64_t cap : caps) {
                for (const bool cheap_first : {false, true}) {
                    for (const bool maintained : {false, true}) {
                        analysis_context plain;
                        plain.max_period = cap;
                        plain.sched.cheap_first = cheap_first;
                        if (maintained) plain.sched.maintenance = refresh;
                        analysis_context cached = plain;
                        cached.cache = &cache;

                        sched_test_stats want, got;
                        plain.sched.stats = &want;
                        cached.sched.stats = &got;
                        const auto expected =
                            select_interface(tasks, u_level, plain);
                        const auto actual =
                            select_interface(tasks, u_level, cached);
                        ASSERT_EQ(actual, expected);
                        ASSERT_EQ(got.cache_hits + got.cache_misses, 1u);
                        got.cache_hits = got.cache_misses = 0;
                        ASSERT_EQ(got, want);
                    }
                }
            }
        }
    }
    // Both paths ran: the bound-equal utilizations re-hit, the rest
    // missed.
    EXPECT_GT(cache.stats().hits, 0u);
    EXPECT_GT(cache.stats().misses, 0u);
}

TEST(selection_cache, update_to_a_held_task_set_adds_no_miss) {
    // 16 light clients, one leaf SE per four. Leaf SE 1 holds the task
    // sets of leaf SE 0's first three ports plus one of its own; swapping
    // client 7 to client 3's set makes leaf SE 1 a copy of leaf SE 0. The
    // level utilizations move, but every slack stays below 0.5, so each
    // period bound stays at t_min: the leaf port re-hits client 3's entry
    // and the root port re-hits leaf SE 0's.
    auto clients = random_clients(11, 16);
    for (std::uint32_t c = 4; c < 7; ++c) clients[c] = clients[c - 4];
    clients[7] = task_set{{333, 2}};
    ASSERT_NE(clients[7], clients[3]);

    selection_cache cache;
    sched_test_stats work;
    analysis_context ctx;
    ctx.cache = &cache;
    ctx.sched.stats = &work;
    const auto sel = select_tree_interfaces(clients, ctx);
    ASSERT_TRUE(sel.feasible);

    const auto before = cache.stats();
    work = {};
    const auto update =
        evaluate_client_update(sel, clients, 7, clients[3], ctx);
    EXPECT_EQ(cache.stats().misses, before.misses);
    EXPECT_EQ(cache.stats().hits, before.hits + sel.shape.leaf_level + 1);

    // The hits replay exactly the uncached update's result and work.
    sched_test_stats plain_work;
    analysis_context plain;
    plain.sched.stats = &plain_work;
    const auto fresh =
        evaluate_client_update(sel, clients, 7, clients[3], plain);
    EXPECT_EQ(update.ses_changed, fresh.ses_changed);
    EXPECT_EQ(update.selection.root_bandwidth, fresh.selection.root_bandwidth);
    EXPECT_EQ(update.selection.levels[1][1].ports,
              fresh.selection.levels[1][1].ports);
    EXPECT_EQ(update.selection.levels[0][0].ports,
              fresh.selection.levels[0][0].ports);
    work.cache_hits = 0;
    EXPECT_EQ(work, plain_work);
}

TEST(selection_cache, clear_empties_every_shard) {
    selection_cache cache;
    analysis_context ctx;
    ctx.cache = &cache;
    for (std::uint64_t p = 100; p < 120; ++p) {
        (void)select_interface({{p, 1}}, 0.5, ctx);
    }
    EXPECT_GT(cache.size(), 0u);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
}

} // namespace
} // namespace bluescale::analysis
