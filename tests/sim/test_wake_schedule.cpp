// Differential test of the event engine's sim::wake_schedule against the
// full-scan engine it replaced. The oracle below is that engine verbatim:
// one wake cell per component (wake() zeroes it), a due scan over every
// cell each stepped cycle, and a commit-time min-scan for the idle-skip
// target. Seeded random probes cross-wake lower, higher and their own
// slots, in the same 64-bit word and across words, return horizons below
// the floor, short, long and k_cycle_never, are woken outside runs, and
// join mid-run. Both engines must produce the identical (cycle, slot)
// tick sequence, the identical commit calls, and land every run at the
// identical cycle -- the stepped cycles (and so every idle-skip target)
// are read off the commit log of the always-present latching slot 0.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <tuple>
#include <vector>

#include "obs/registry.hpp"
#include "sim/component.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/wake_schedule.hpp"

namespace bluescale {
namespace {

/// The pre-bitset event engine: every stepped cycle scans every wake cell
/// for due components, then scans them all again for the earliest wakeup.
class full_scan_engine {
public:
    void add(component& c) { components_.push_back(&c); }
    [[nodiscard]] cycle_t now() const { return now_; }

    void run(cycle_t cycles) {
        const cycle_t end = now_ + cycles;
        while (now_ < end) {
            step();
            if (now_ >= end) break;
            const cycle_t due = std::min(end, std::max(now_, next_due_));
            if (due > now_) now_ = due;
        }
    }

    template <typename Pred>
    bool run_until(Pred&& done, cycle_t max_cycles) {
        const cycle_t end = now_ + max_cycles;
        if (now_ >= end) return done();
        bool checked = false;
        while (now_ < end) {
            if (!checked && done()) return true;
            checked = false;
            step();
            if (now_ < end) {
                const cycle_t due =
                    std::min(end, std::max(now_, next_due_));
                if (due > now_) {
                    if (done()) return true;
                    now_ = due;
                    checked = true;
                }
            }
        }
        return false;
    }

private:
    void step() {
        if (cells_.size() != components_.size()) rebind();
        for (std::size_t i = 0; i < components_.size(); ++i) {
            if (cells_[i] <= now_) {
                component* c = components_[i];
                c->tick(now_);
                cells_[i] = std::max(now_ + 1, c->next_event(now_));
            }
        }
        for (component* c : committers_) c->commit();
        cycle_t due = k_cycle_never;
        for (const cycle_t at : cells_) due = std::min(due, at);
        next_due_ = due;
        ++now_;
    }

    void rebind() {
        // Existing cells keep their wake times; new components start
        // armed. Each component's wake() zeroes its own cell.
        cells_.resize(components_.size(), 0);
        words_.resize(components_.size(), 0);
        committers_.clear();
        for (std::size_t i = 0; i < components_.size(); ++i) {
            components_[i]->bind_wake_cell(&cells_[i], &words_[i], 1);
            if (components_[i]->latches()) {
                committers_.push_back(components_[i]);
            }
        }
        next_due_ = now_;
    }

    std::vector<component*> components_;
    std::vector<cycle_t> cells_;
    std::vector<std::uint64_t> words_; ///< unread: the cells carry wakes
    std::vector<component*> committers_;
    cycle_t next_due_ = 0;
    cycle_t now_ = 0;
};

/// ('t' | 'c' | 'r', cycle, slot-or-result): one tick, one commit, or the
/// clock at the end of one run call.
using entry = std::tuple<char, cycle_t, std::uint64_t>;

std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/// A scripted component: what it does on a tick is a pure function of
/// (seed, slot, cycle, tick count), so two engines that tick it at the
/// same cycles drive it through the same states.
class probe : public component {
public:
    probe(std::size_t idx, std::uint64_t seed, std::vector<entry>& log,
          std::vector<std::unique_ptr<probe>>& peers,
          std::function<cycle_t()> engine_now)
        : component("probe" + std::to_string(idx), idx % 3 == 0),
          idx_(idx), seed_(seed), log_(log), peers_(peers),
          engine_now_(std::move(engine_now)) {}

    void tick(cycle_t now) override {
        log_.emplace_back('t', now, idx_);
        ++ticks_;
        std::uint64_t h = mix(seed_ ^ mix(idx_ * 0x9e3779b97f4a7c15ull ^
                                          now * 0xc2b2ae3d27d4eb4full ^
                                          ticks_));
        const auto n = static_cast<std::int64_t>(peers_.size());
        const auto self = static_cast<std::int64_t>(idx_);
        for (int k = 0; k < 2; ++k) {
            const std::uint64_t pick = h % 32;
            h /= 32;
            std::int64_t target = -1;
            switch (pick) {
            case 0: target = self; break;
            case 1: target = self - 1; break;
            case 2: target = self + 1; break;
            case 3: target = self - 64; break;
            case 4: target = self + 64; break;
            case 5: target = static_cast<std::int64_t>(h % peers_.size());
                    break;
            default: break;
            }
            if (target >= 0 && target < n) {
                peers_[static_cast<std::size_t>(target)]->wake();
            }
        }
        switch (h % 8) {
        case 0:
        case 1: horizon_ = now + 1; break;
        case 2: horizon_ = now + 2 + (h >> 3) % 4; break;
        case 3:
        case 4: horizon_ = now + 16 + (h >> 3) % 200; break;
        case 5: horizon_ = k_cycle_never; break;
        case 6: horizon_ = now; break; // below the floor: clamped
        default: horizon_ = now + 500 + (h >> 3) % 1000; break;
        }
    }

    [[nodiscard]] cycle_t next_event(cycle_t) const override {
        return horizon_;
    }

    void commit() override { log_.emplace_back('c', engine_now_(), idx_); }

    [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

private:
    std::size_t idx_;
    std::uint64_t seed_;
    std::vector<entry>& log_;
    std::vector<std::unique_ptr<probe>>& peers_;
    std::function<cycle_t()> engine_now_;
    std::uint64_t ticks_ = 0;
    cycle_t horizon_ = 0;
};

/// Drives one engine through the seeded script and returns its log.
template <typename Engine>
std::vector<entry> run_script(Engine& eng, std::size_t n,
                              std::uint64_t seed) {
    std::vector<entry> log;
    std::vector<std::unique_ptr<probe>> probes;
    for (std::size_t i = 0; i < n; ++i) {
        probes.push_back(std::make_unique<probe>(
            i, seed, log, probes, [&eng] { return eng.now(); }));
    }
    // A quarter of the slots join late: half between runs, half from
    // inside a run_until predicate.
    const std::size_t late = n / 4;
    std::size_t joined = n - late;
    for (std::size_t i = 0; i < joined; ++i) eng.add(*probes[i]);
    auto join = [&](std::size_t upto) {
        for (; joined < upto; ++joined) eng.add(*probes[joined]);
    };
    auto total_ticks = [&] {
        std::uint64_t t = 0;
        for (const auto& p : probes) t += p->ticks();
        return t;
    };

    rng r(seed);
    for (int segment = 0; segment < 8; ++segment) {
        // Wakes made outside a run, including on slots not yet joined.
        for (int k = 0; k < 3; ++k) probes[r.next() % n]->wake();
        if (segment == 2) join(n - late / 2);
        const cycle_t budget = 200 + r.next() % 1500;
        if (segment % 2 == 0) {
            eng.run(budget);
            log.emplace_back('r', eng.now(), 0);
        } else {
            const std::uint64_t target = total_ticks() + 1 + r.next() % 400;
            const bool fired = eng.run_until(
                [&] {
                    if (segment == 3) join(n);
                    return total_ticks() >= target;
                },
                budget);
            log.emplace_back('r', eng.now(), fired ? 1 : 0);
        }
    }
    return log;
}

void expect_same_schedule(std::size_t n, std::uint64_t seed,
                          bool profiled) {
    full_scan_engine oracle;
    const std::vector<entry> want = run_script(oracle, n, seed);

    obs::registry reg;
    simulator sim(simulator::engine::event);
    if (profiled) sim.enable_profiling(reg);
    const std::vector<entry> got = run_script(sim, n, seed);

    ASSERT_GT(want.size(), 20u);
    const auto mismatch =
        std::mismatch(want.begin(), want.end(), got.begin(), got.end());
    ASSERT_TRUE(mismatch.first == want.end() && mismatch.second == got.end())
        << "first divergence at log entry "
        << (mismatch.first - want.begin()) << " of " << want.size() << "/"
        << got.size();
}

class wake_schedule_diff
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(wake_schedule_diff, matches_full_scan_engine) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(seed);
        expect_same_schedule(GetParam(), seed, false);
    }
}

TEST_P(wake_schedule_diff, profiled_path_matches_full_scan_engine) {
    for (std::uint64_t seed = 11; seed <= 13; ++seed) {
        SCOPED_TRACE(seed);
        expect_same_schedule(GetParam(), seed, true);
    }
}

// Slot counts on both sides of each 64-bit word boundary.
INSTANTIATE_TEST_SUITE_P(wake_schedule, wake_schedule_diff,
                         ::testing::Values(1, 63, 64, 65, 130, 258));

/// A bare slot for direct schedule tests.
class slot : public component {
public:
    slot() : component("slot") {}
    void tick(cycle_t) override {}
};

TEST(wake_schedule, next_due_tracks_bits_and_timers) {
    sim::wake_schedule s;
    std::vector<std::unique_ptr<slot>> slots;
    for (int i = 0; i < 70; ++i) slots.push_back(std::make_unique<slot>());
    s.grow_to(slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i) s.bind(i, *slots[i]);
    EXPECT_EQ(s.next_due(), 0u); // new slots start due

    // Every slot sleeps on its own timer: 100 + i, slot 5 forever.
    std::vector<std::size_t> ticked;
    s.sweep(10, [&](std::size_t i) {
        ticked.push_back(i);
        return i == 5 ? k_cycle_never : cycle_t{100 + i};
    });
    EXPECT_EQ(ticked.size(), slots.size());
    EXPECT_EQ(s.next_due(), 100u);

    // A wake makes the schedule due at once; the woken slot's timer is
    // replaced when it ticks.
    slots[69]->wake();
    EXPECT_EQ(s.next_due(), 0u);
    ticked.clear();
    s.sweep(11, [&](std::size_t i) {
        ticked.push_back(i);
        return k_cycle_never;
    });
    EXPECT_EQ(ticked, std::vector<std::size_t>{69});
    EXPECT_EQ(s.next_due(), 100u);

    // Timers release at their cycle, not before.
    ticked.clear();
    s.sweep(100, [&](std::size_t i) {
        ticked.push_back(i);
        return k_cycle_never;
    });
    EXPECT_EQ(ticked, std::vector<std::size_t>{0});
    EXPECT_EQ(s.next_due(), 101u);

    // Slot 5 never wakes by itself.
    ticked.clear();
    s.sweep(1'000, [&](std::size_t i) {
        ticked.push_back(i);
        return k_cycle_never;
    });
    EXPECT_EQ(ticked.size(), slots.size() - 3);
    EXPECT_EQ(s.next_due(), k_cycle_never);
}

TEST(wake_schedule, commit_set_is_ticked_or_woken_after_the_walk) {
    sim::wake_schedule s;
    std::vector<std::unique_ptr<slot>> slots;
    for (int i = 0; i < 130; ++i) slots.push_back(std::make_unique<slot>());
    s.grow_to(slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i) s.bind(i, *slots[i]);
    s.sweep(0, [](std::size_t) { return k_cycle_never; });
    slots[3]->wake();
    slots[70]->wake();
    // Slot 70 wakes slot 2 (behind the cursor) and slot 129 (ahead).
    s.sweep(1, [&](std::size_t i) {
        if (i == 70) {
            slots[2]->wake();
            slots[129]->wake();
        }
        return k_cycle_never;
    });
    std::vector<std::size_t> edges;
    s.for_each_ticked_or_due([&](std::size_t i) { edges.push_back(i); });
    EXPECT_EQ(edges, (std::vector<std::size_t>{2, 3, 70, 129}));
    EXPECT_EQ(s.next_due(), 0u); // slot 2 ticks next cycle
}

} // namespace
} // namespace bluescale
