// The shared bench command line: numbers are unsigned decimal and must
// fit the option's field; anything else is a usage error (exit 2) rather
// than a silently wrapped or truncated value. Parsing only -- no sweep
// runs and no thread starts.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "harness/bench_cli.hpp"

namespace bluescale::harness {
namespace {

constexpr std::uint32_t k_every_flag = k_sweep_flags | flag_profile;

bench_options parse(std::initializer_list<const char*> args,
                    std::uint32_t honoured = k_every_flag) {
    std::vector<std::string> storage{"bench"};
    storage.insert(storage.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (auto& a : storage) argv.push_back(a.data());
    return parse_bench_cli(static_cast<int>(argv.size()), argv.data(),
                           bench_options{}, "test driver", honoured);
}

TEST(bench_cli, parses_every_numeric_flag) {
    const auto opts = parse({"--trials", "3", "--cycles", "20000",
                             "--threads", "4", "--seed", "7", "--csv",
                             "out.csv"});
    EXPECT_EQ(opts.trials, 3u);
    EXPECT_EQ(opts.measure_cycles, 20'000u);
    EXPECT_EQ(opts.threads, 4u);
    EXPECT_EQ(opts.seed, 7u);
    EXPECT_EQ(opts.csv_path, "out.csv");
}

TEST(bench_cli, accepts_each_fields_largest_value) {
    const auto opts =
        parse({"--trials", "4294967295", "--cycles", "18446744073709551615",
               "--seed", "18446744073709551615", "--threads", "0"});
    EXPECT_EQ(opts.trials, std::numeric_limits<std::uint32_t>::max());
    EXPECT_EQ(opts.measure_cycles, std::numeric_limits<cycle_t>::max());
    EXPECT_EQ(opts.seed, std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(opts.threads, 0u);
}

TEST(bench_cli, rejects_a_sign) {
    EXPECT_EXIT((void)parse({"--trials", "-1"}),
                ::testing::ExitedWithCode(2), "--trials expects an integer");
    EXPECT_EXIT((void)parse({"--cycles", "+5"}),
                ::testing::ExitedWithCode(2), "--cycles expects an integer");
}

TEST(bench_cli, rejects_values_that_do_not_fit_the_field) {
    // 2^32 + 1 used to run a single trial.
    EXPECT_EXIT((void)parse({"--trials", "4294967297"}),
                ::testing::ExitedWithCode(2), "--trials expects an integer");
    EXPECT_EXIT((void)parse({"--threads", "4294967296"}),
                ::testing::ExitedWithCode(2),
                "--threads expects an integer");
}

TEST(bench_cli, rejects_overflow) {
    EXPECT_EXIT((void)parse({"--seed", "18446744073709551616"}),
                ::testing::ExitedWithCode(2), "--seed expects an integer");
    EXPECT_EXIT((void)parse({"--cycles", "99999999999999999999999"}),
                ::testing::ExitedWithCode(2), "--cycles expects an integer");
}

TEST(bench_cli, rejects_malformed_numbers) {
    for (const char* text : {"", " 5", "12abc", "0x10", "1e3"}) {
        EXPECT_EXIT((void)parse({"--trials", text}),
                    ::testing::ExitedWithCode(2), "expects an integer")
            << "'" << text << "'";
    }
}

TEST(bench_cli, rejects_positional_arguments) {
    EXPECT_EXIT((void)parse({"20"}), ::testing::ExitedWithCode(2),
                "unexpected argument '20'");
}

TEST(bench_cli, rejects_unknown_options_and_missing_values) {
    EXPECT_EXIT((void)parse({"--trails", "3"}), ::testing::ExitedWithCode(2),
                "unknown option '--trails'");
    EXPECT_EXIT((void)parse({"--trials"}), ::testing::ExitedWithCode(2),
                "--trials expects a value");
}

TEST(bench_cli, rejects_flags_the_driver_does_not_honour) {
    // A driver without CSV or metrics output (acceptance_ratio's set)
    // must not accept --csv / --metrics and then write nothing.
    const std::uint32_t analysis_only = flag_trials | flag_threads;
    EXPECT_EXIT((void)parse({"--trials", "1", "--csv", "x.csv"},
                            analysis_only),
                ::testing::ExitedWithCode(2),
                "--csv is not supported by this driver");
    EXPECT_EXIT((void)parse({"--metrics", "m.csv"}, analysis_only),
                ::testing::ExitedWithCode(2),
                "--metrics is not supported by this driver");
    EXPECT_EXIT((void)parse({"--lockstep"}, analysis_only),
                ::testing::ExitedWithCode(2),
                "--lockstep is not supported by this driver");
    EXPECT_EXIT((void)parse({"--profile"}, k_sweep_flags),
                ::testing::ExitedWithCode(2),
                "--profile is not supported by this driver");
    // The honoured ones still parse.
    const auto opts = parse({"--trials", "3", "--threads", "2"},
                            analysis_only);
    EXPECT_EQ(opts.trials, 3u);
    EXPECT_EQ(opts.threads, 2u);
}

TEST(bench_cli, usage_lists_only_the_honoured_flags) {
    EXPECT_EXIT((void)parse({"--help"}, flag_csv),
                ::testing::ExitedWithCode(0),
                "usage: bench \\[--csv PATH\\]\n");
}

TEST(bench_cli, help_exits_cleanly) {
    EXPECT_EXIT((void)parse({"--help"}), ::testing::ExitedWithCode(0),
                "usage:");
}

} // namespace
} // namespace bluescale::harness
