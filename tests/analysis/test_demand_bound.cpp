#include <gtest/gtest.h>

#include "analysis/demand_bound.hpp"

namespace bluescale::analysis {
namespace {

TEST(dbf, single_task_staircase) {
    const rt_task t{10, 3};
    EXPECT_EQ(dbf(0, t), 0u);
    EXPECT_EQ(dbf(9, t), 0u);
    EXPECT_EQ(dbf(10, t), 3u);
    EXPECT_EQ(dbf(19, t), 3u);
    EXPECT_EQ(dbf(20, t), 6u);
    EXPECT_EQ(dbf(100, t), 30u);
}

TEST(dbf, zero_period_task_contributes_nothing) {
    EXPECT_EQ(dbf(100, rt_task{0, 5}), 0u);
}

TEST(dbf, set_sums_tasks) {
    const task_set s{{10, 3}, {5, 1}};
    EXPECT_EQ(dbf(10, s), 3u + 2u);
    EXPECT_EQ(dbf(20, s), 6u + 4u);
}

TEST(dbf, empty_set_is_zero) {
    EXPECT_EQ(dbf(100, task_set{}), 0u);
}

TEST(utilization, sums_ratios) {
    const task_set s{{10, 3}, {5, 1}};
    EXPECT_DOUBLE_EQ(utilization(s), 0.3 + 0.2);
    EXPECT_DOUBLE_EQ(utilization(task_set{}), 0.0);
}

TEST(min_period, smallest_nonzero) {
    EXPECT_EQ(min_period({{10, 1}, {5, 1}, {20, 1}}), 5u);
    EXPECT_EQ(min_period({{0, 1}, {7, 1}}), 7u);
    EXPECT_EQ(min_period({}), 0u);
}

TEST(dbf_step_points, multiples_of_each_period) {
    const task_set s{{4, 1}, {6, 1}};
    const auto pts = dbf_step_points(s, 12);
    const std::vector<std::uint64_t> expected{4, 6, 8, 12};
    EXPECT_EQ(pts, expected);
}

TEST(dbf_step_points, deduplicates_shared_multiples) {
    const task_set s{{3, 1}, {6, 1}};
    const auto pts = dbf_step_points(s, 12);
    const std::vector<std::uint64_t> expected{3, 6, 9, 12};
    EXPECT_EQ(pts, expected);
}

TEST(dbf_step_points, skips_zero_wcet_tasks) {
    const task_set s{{4, 0}, {6, 1}};
    const auto pts = dbf_step_points(s, 12);
    const std::vector<std::uint64_t> expected{6, 12};
    EXPECT_EQ(pts, expected);
}

TEST(dbf_step_points, empty_below_first_period) {
    EXPECT_TRUE(dbf_step_points({{100, 1}}, 99).empty());
}

TEST(dbf_step_points, stops_at_the_horizon_without_wrapping) {
    // Multiples of 2^62 up to 2^64 - 1: the fourth would wrap to 0.
    constexpr std::uint64_t quarter = std::uint64_t{1} << 62;
    const auto pts = dbf_step_points({{quarter, 1}}, ~std::uint64_t{0});
    const std::vector<std::uint64_t> expected{quarter, 2 * quarter,
                                              3 * quarter};
    EXPECT_EQ(pts, expected);
}

class dbf_property : public ::testing::TestWithParam<rt_task> {};

TEST_P(dbf_property, staircase_changes_only_at_step_points) {
    const rt_task t = GetParam();
    const task_set s{t};
    const auto pts = dbf_step_points(s, 5 * t.period);
    std::size_t idx = 0;
    std::uint64_t prev = 0;
    for (std::uint64_t x = 1; x <= 5 * t.period; ++x) {
        const std::uint64_t d = dbf(x, s);
        if (d != prev) {
            ASSERT_LT(idx, pts.size());
            EXPECT_EQ(x, pts[idx]) << "dbf changed off a step point";
            ++idx;
        }
        prev = d;
    }
}

TEST_P(dbf_property, linear_envelope) {
    const rt_task t = GetParam();
    for (std::uint64_t x = 0; x <= 5 * t.period; ++x) {
        EXPECT_LE(static_cast<double>(dbf(x, t)),
                  t.utilization() * static_cast<double>(x) + 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(tasks, dbf_property,
                         ::testing::Values(rt_task{10, 3}, rt_task{7, 7},
                                           rt_task{100, 1}, rt_task{3, 2}));

} // namespace
} // namespace bluescale::analysis
