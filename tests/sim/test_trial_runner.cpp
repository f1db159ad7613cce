#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "sim/rng.hpp"
#include "sim/trial_runner.hpp"

namespace bluescale::sim {
namespace {

TEST(trial_runner, resolve_threads_never_zero) {
    EXPECT_GE(resolve_threads(0), 1u);
    EXPECT_EQ(resolve_threads(1), 1u);
    EXPECT_EQ(resolve_threads(7), 7u);
}

TEST(trial_runner, results_come_back_in_trial_order) {
    const trial_runner runner(4);
    const auto out = runner.run(
        64, [](std::uint32_t t) { return static_cast<int>(t) * 3; });
    ASSERT_EQ(out.size(), 64u);
    for (std::uint32_t t = 0; t < 64; ++t) {
        EXPECT_EQ(out[t], static_cast<int>(t) * 3);
    }
}

TEST(trial_runner, parallel_results_identical_to_serial) {
    // The determinism contract: for a pure trial function, the collected
    // vector is bit-identical regardless of thread count.
    const auto trial = [](std::uint32_t t) {
        rng r(substream(42, t));
        double acc = 0.0;
        for (int i = 0; i < 100; ++i) acc += r.uniform_unit();
        return acc;
    };
    const auto serial = trial_runner(1).run(40, trial);
    const auto parallel = trial_runner(4).run(40, trial);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i], parallel[i]) << "trial " << i;
    }
}

TEST(trial_runner, zero_trials_is_a_noop) {
    const trial_runner runner(4);
    const auto out = runner.run(0, [](std::uint32_t) { return 1; });
    EXPECT_TRUE(out.empty());
}

TEST(trial_runner, more_threads_than_trials) {
    const trial_runner runner(16);
    const auto out =
        runner.run(3, [](std::uint32_t t) { return static_cast<int>(t); });
    EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
}

TEST(trial_runner, for_each_visits_every_index_exactly_once) {
    constexpr std::uint32_t n = 200;
    std::vector<std::atomic<int>> visits(n);
    for_each_trial(n, 8, [&](std::uint32_t i) {
        visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::uint32_t i = 0; i < n; ++i) {
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
    }
}

TEST(trial_runner, serial_fallback_runs_in_index_order) {
    std::vector<std::uint32_t> order;
    for_each_trial(5, 1, [&](std::uint32_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

TEST(trial_runner, exception_propagates_to_caller) {
    const trial_runner runner(4);
    EXPECT_THROW((void)runner.run(32,
                                  [](std::uint32_t t) {
                                      if (t == 7) {
                                          throw std::runtime_error("boom");
                                      }
                                      return t;
                                  }),
                 std::runtime_error);
}

TEST(rng_substream, deterministic_and_distinct) {
    EXPECT_EQ(substream(1, 0), substream(1, 0));
    EXPECT_NE(substream(1, 0), substream(1, 1));
    EXPECT_NE(substream(1, 0), substream(2, 0));
    // Streams from adjacent indices must not produce correlated draws.
    rng a(substream(99, 0));
    rng b(substream(99, 1));
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next()) ++equal;
    }
    EXPECT_EQ(equal, 0);
}

} // namespace
} // namespace bluescale::sim
