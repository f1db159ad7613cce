#include <gtest/gtest.h>

#include <sstream>

#include "obs/registry.hpp"

namespace bluescale::obs {
namespace {

TEST(obs_registry, handles_mutate_their_slots) {
    registry reg;
    auto c = reg.make_counter("a/count");
    auto g = reg.make_gauge("a/level");
    auto r = reg.make_real("a/rate");
    auto s = reg.make_sample("a/wait");
    c.inc();
    c.inc(4);
    g.set(-3);
    g.add(1);
    r.set(2.5);
    r.add(0.5);
    s.add(1.0);
    s.add(3.0);
    EXPECT_EQ(c.value(), 5u);
    EXPECT_EQ(g.value(), -2);
    EXPECT_DOUBLE_EQ(r.value(), 3.0);
    EXPECT_EQ(s.count(), 2u);
    EXPECT_DOUBLE_EQ(s.values().mean(), 2.0);
}

TEST(obs_registry, unbound_handles_are_harmless) {
    counter c;
    gauge g;
    real_gauge r;
    sample s;
    c.inc(7);
    g.add(7);
    r.add(7.0);
    s.add(7.0);
    EXPECT_FALSE(c.bound());
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0);
    EXPECT_DOUBLE_EQ(r.value(), 0.0);
    EXPECT_EQ(s.count(), 0u);
    EXPECT_TRUE(s.values().samples().empty());
}

TEST(obs_registry, rebinding_the_same_name_is_idempotent) {
    registry reg;
    auto a = reg.make_counter("x/served");
    auto b = reg.make_counter("x/served");
    a.inc(2);
    b.inc(3);
    EXPECT_EQ(a.value(), 5u);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(obs_registry, snapshot_is_sorted_regardless_of_registration_order) {
    registry fwd;
    registry rev;
    for (const char* name : {"a/one", "b/two", "c/three"}) {
        fwd.make_counter(name).inc();
    }
    for (const char* name : {"c/three", "b/two", "a/one"}) {
        rev.make_counter(name).inc();
    }
    const snapshot sf = fwd.take_snapshot();
    const snapshot sr = rev.take_snapshot();
    ASSERT_EQ(sf.entries().size(), 3u);
    ASSERT_EQ(sr.entries().size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(sf.entries()[i].first, sr.entries()[i].first);
    }
    std::ostringstream a;
    std::ostringstream b;
    sf.write_csv(a);
    sr.write_csv(b);
    EXPECT_EQ(a.str(), b.str());
}

TEST(obs_registry, merge_sums_scalars_and_appends_samples_in_call_order) {
    registry r1;
    registry r2;
    r1.make_counter("n").inc(2);
    r2.make_counter("n").inc(3);
    r1.make_sample("w").add(1.0);
    r2.make_sample("w").add(2.0);
    r2.make_counter("only_second").inc(9);

    snapshot merged = r1.take_snapshot();
    merged.merge(r2.take_snapshot());
    EXPECT_EQ(merged.find("n")->count, 5u);
    EXPECT_EQ(merged.find("only_second")->count, 9u);
    const auto& w = merged.find("w")->samples.samples();
    ASSERT_EQ(w.size(), 2u);
    EXPECT_DOUBLE_EQ(w[0], 1.0); // merge target first: call order
    EXPECT_DOUBLE_EQ(w[1], 2.0);
}

TEST(obs_registry, profile_metrics_stay_out_of_deterministic_snapshots) {
    registry reg;
    reg.make_counter("sim/ticks").inc(5);
    reg.make_counter("profile/wall_ns", k_metric_profile).inc(123);
    const snapshot det = reg.take_snapshot();
    EXPECT_NE(det.find("sim/ticks"), nullptr);
    EXPECT_EQ(det.find("profile/wall_ns"), nullptr);
    const snapshot full = reg.take_snapshot(true);
    EXPECT_NE(full.find("profile/wall_ns"), nullptr);
    const snapshot prof = full.profile_only();
    ASSERT_EQ(prof.entries().size(), 1u);
    EXPECT_EQ(prof.entries().front().first, "profile/wall_ns");
}

TEST(obs_registry, write_csv_is_deterministic_and_well_formed) {
    registry reg;
    reg.make_counter("b/count").inc(2);
    reg.make_sample("a/wait").add(4.0);
    std::ostringstream os;
    reg.take_snapshot().write_csv(os, "pre/");
    const std::string text = os.str();
    EXPECT_EQ(text.rfind("metric,kind,value,count,mean,min,max,p50,p99\n", 0),
              0u);
    EXPECT_NE(text.find("pre/a/wait,sample,"), std::string::npos);
    EXPECT_NE(text.find("pre/b/count,counter," + std::to_string(2)),
              std::string::npos);
    // Sorted: the sample row precedes the counter row.
    EXPECT_LT(text.find("pre/a/wait"), text.find("pre/b/count"));
}

TEST(obs_registry, metric_cells_render_stats_and_default_missing_to_zero) {
    registry reg;
    auto s = reg.make_sample("w");
    s.add(1.0);
    s.add(3.0);
    reg.make_counter("n").inc(4);
    const snapshot snap = reg.take_snapshot();
    const auto cells = metric_cells(
        snap, {"n", "w", "w:max", "w:count", "absent", "absent:p99"});
    ASSERT_EQ(cells.size(), 6u);
    EXPECT_EQ(cells[0], std::to_string(std::uint64_t{4}));
    EXPECT_EQ(cells[1], std::to_string(2.0)); // default: mean
    EXPECT_EQ(cells[2], std::to_string(3.0));
    EXPECT_EQ(cells[3], std::to_string(std::uint64_t{2}));
    EXPECT_EQ(cells[4], "0");
    EXPECT_EQ(cells[5], "0");
}

} // namespace
} // namespace bluescale::obs
