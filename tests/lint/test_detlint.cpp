// detlint's own test suite: every fixture under tests/lint/fixtures/
// violates exactly one rule and must be flagged with that rule id;
// the suppressed_* twins carry a detlint:allow and must scan clean.
// A second group drives the engine on in-memory sources to pin down the
// subtler contracts (cross-file member facts, suppression placement,
// rule filtering) that the fixtures can't express one file at a time.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "engine.hpp"
#include "sarif.hpp"

namespace {

using detlint::scan_options;
using detlint::scan_result;

std::string fixture(const std::string& name) {
    return std::string(DETLINT_FIXTURE_DIR) + "/" + name;
}

scan_result scan_fixture(const std::string& name) {
    return detlint::scan_files({fixture(name)}, scan_options{});
}

void expect_only_rule(const scan_result& r, const std::string& rule) {
    ASSERT_FALSE(r.findings.empty()) << "expected a " << rule << " finding";
    for (const auto& f : r.findings) {
        EXPECT_EQ(f.rule, rule) << f.path << ":" << f.line << " " << f.message;
        EXPECT_GT(f.line, 0u);
    }
    EXPECT_TRUE(r.suppressed.empty());
}

struct seeded_case {
    const char* file;
    const char* rule;
};

constexpr seeded_case k_seeded[] = {
    {"nondet_random_device.cpp", "nondet-source"},
    {"nondet_rand_call.cpp", "nondet-source"},
    {"nondet_time_call.cpp", "nondet-source"},
    {"nondet_chrono_clock.cpp", "nondet-source"},
    {"nondet_getenv.cpp", "nondet-source"},
    {"svc/profile_violation.cpp", "nondet-source"},
    {"unordered_range_for.cpp", "unordered-iter"},
    {"unordered_begin_loop.cpp", "unordered-iter"},
    {"float_cycle_mix.cpp", "float-cycle"},
    {"cycle_step_arith.cpp", "cycle-step"},
    {"libc_shadow_rand.cpp", "libc-shadow"},
    {"metrics_bypass_field_write.cpp", "metrics-bypass"},
    {"metrics_bypass_stream.cpp", "metrics-bypass"},
    {"missing_pragma_once.hpp", "include-guard"},
    {"hotpath/alloc_in_tick.cpp", "hotpath-alloc"},
    {"hotpath/lock_in_tick.cpp", "hotpath-lock"},
    {"hotpath/throw_in_tick.cpp", "hotpath-throw"},
    {"hotpath/io_in_tick.cpp", "hotpath-io"},
};

TEST(detlint_fixtures, each_seeded_violation_is_flagged_with_its_rule) {
    for (const auto& c : k_seeded) {
        SCOPED_TRACE(c.file);
        expect_only_rule(scan_fixture(c.file), c.rule);
    }
}

TEST(detlint_fixtures, allow_annotations_silence_each_rule) {
    const char* suppressed[] = {
        "suppressed_nondet.cpp",    "suppressed_unordered.cpp",
        "suppressed_float_cycle.cpp", "suppressed_cycle_step.cpp",
        "suppressed_libc_shadow.cpp",
        "suppressed_metrics_bypass.cpp", "suppressed_include_guard.hpp",
        "hotpath/suppressed_alloc.cpp", "hotpath/suppressed_lock.cpp",
        "hotpath/suppressed_throw.cpp", "hotpath/suppressed_io.cpp",
    };
    for (const auto* name : suppressed) {
        SCOPED_TRACE(name);
        const scan_result r = scan_fixture(name);
        EXPECT_TRUE(r.findings.empty())
            << r.findings.front().message << " (line "
            << r.findings.front().line << ")";
        EXPECT_FALSE(r.suppressed.empty())
            << "the seeded violation disappeared -- fixture is stale";
    }
}

TEST(detlint_fixtures, no_suppress_mode_reports_allowed_findings) {
    scan_options opts;
    opts.ignore_suppressions = true;
    const scan_result r =
        detlint::scan_files({fixture("suppressed_nondet.cpp")}, opts);
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings.front().rule, "nondet-source");
}

TEST(detlint_fixtures, clean_idiomatic_code_has_zero_findings) {
    const scan_result r = scan_fixture("clean.cpp");
    EXPECT_TRUE(r.findings.empty())
        << r.findings.front().rule << ": " << r.findings.front().message;
}

TEST(detlint_fixtures, reserve_then_index_tick_path_is_clean) {
    // The sanctioned hot-path shape: all growth in setup (never reachable
    // from the roots), only pre-sized access in tick -- no suppression
    // comment needed.
    const scan_result r = scan_fixture("hotpath/clean_reserved.cpp");
    EXPECT_TRUE(r.findings.empty())
        << r.findings.front().rule << ": " << r.findings.front().message;
    EXPECT_TRUE(r.suppressed.empty());
}

TEST(detlint_fixtures, whole_directory_scan_is_deterministic) {
    const auto files =
        detlint::collect_files({std::string(DETLINT_FIXTURE_DIR)});
    ASSERT_GE(files.size(), 16u);
    EXPECT_TRUE(std::is_sorted(files.begin(), files.end()));
    const scan_result a = detlint::scan_files(files, scan_options{});
    const scan_result b = detlint::scan_files(files, scan_options{});
    ASSERT_EQ(a.findings.size(), b.findings.size());
    for (std::size_t i = 0; i < a.findings.size(); ++i) {
        EXPECT_EQ(a.findings[i].path, b.findings[i].path);
        EXPECT_EQ(a.findings[i].line, b.findings[i].line);
        EXPECT_EQ(a.findings[i].rule, b.findings[i].rule);
    }
}

// ---------------------------------------------------------------------------
// Engine contracts on in-memory sources

scan_result scan_two(const std::string& hpp, const std::string& cpp) {
    return detlint::scan_sources(
        {{"fake/widget.hpp", hpp}, {"fake/widget.cpp", cpp}},
        scan_options{});
}

TEST(detlint_engine, header_member_facts_reach_the_cpp) {
    // The live bug class this rule exists for: the member is declared
    // unordered in the header, the nondeterministic iteration sits in the
    // .cpp. Per-file analysis would miss it.
    const scan_result r = scan_two(
        "#pragma once\n"
        "#include <unordered_map>\n"
        "struct widget {\n"
        "    std::unordered_map<int, long> outstanding_;\n"
        "};\n",
        "#include \"widget.hpp\"\n"
        "long drain(widget& w) {\n"
        "    long sum = 0;\n"
        "    for (const auto& [k, v] : w.outstanding_) sum += v;\n"
        "    return sum;\n"
        "}\n");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings.front().rule, "unordered-iter");
    EXPECT_EQ(r.findings.front().path, "fake/widget.cpp");
    EXPECT_EQ(r.findings.front().line, 4u);
}

TEST(detlint_engine, cycle_member_facts_reach_the_cpp) {
    const scan_result r = scan_two(
        "#pragma once\n"
        "using cycle_t = unsigned long long;\n"
        "struct widget { cycle_t horizon_ = 0; };\n",
        "#include \"widget.hpp\"\n"
        "void stretch(widget& w) { w.horizon_ = w.horizon_ * 1.25; }\n");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings.front().rule, "float-cycle");
    EXPECT_EQ(r.findings.front().path, "fake/widget.cpp");
}

TEST(detlint_engine, generic_local_names_do_not_leak_across_files) {
    // `p` is double in one file and a cycle counter in another; neither
    // file mixes types internally, so neither may be flagged.
    const scan_result r = detlint::scan_sources(
        {{"fake/a.cpp", "double scale(double p) { return p * 2.0; }\n"},
         {"fake/b.cpp",
          "using cycle_t = unsigned long long;\n"
          "cycle_t twice(cycle_t p) { return p * 2; }\n"}},
        scan_options{});
    EXPECT_TRUE(r.findings.empty())
        << r.findings.front().message;
}

TEST(detlint_engine, static_cast_boundary_is_the_sanctioned_idiom) {
    const scan_result r = detlint::scan_sources(
        {{"fake/a.cpp",
          "using cycle_t = unsigned long long;\n"
          "double to_us(cycle_t n_cycles, double us_per_cycle) {\n"
          "    return static_cast<double>(n_cycles) * us_per_cycle;\n"
          "}\n"}},
        scan_options{});
    EXPECT_TRUE(r.findings.empty()) << r.findings.front().message;
}

TEST(detlint_engine, analysis_and_hwcost_may_do_real_arithmetic) {
    const std::string body =
        "using cycle_t = unsigned long long;\n"
        "double sbf(cycle_t window) { return window * 0.5; }\n";
    const scan_result flagged = detlint::scan_sources(
        {{"src/sim/foo.cpp", body}}, scan_options{});
    ASSERT_EQ(flagged.findings.size(), 1u);
    EXPECT_EQ(flagged.findings.front().rule, "float-cycle");
    const scan_result exempt = detlint::scan_sources(
        {{"src/analysis/foo.cpp", body}, {"src/hwcost/bar.cpp", body}},
        scan_options{});
    EXPECT_TRUE(exempt.findings.empty());
}

TEST(detlint_engine, horizon_bodies_own_cycle_step_arithmetic) {
    // `now + k` is the horizon API's vocabulary: exempt inside
    // next_event()/wake_horizon() bodies (inline or out-of-line), flagged
    // anywhere else in component code.
    const scan_result r = detlint::scan_sources(
        {{"src/core/w.cpp",
          "using cycle_t = unsigned long long;\n"
          "struct w {\n"
          "    cycle_t next_event(cycle_t now) const { return now + 1; }\n"
          "    cycle_t retry_at(cycle_t now) const { return now + 4; }\n"
          "};\n"
          "cycle_t w_wake_horizon(cycle_t now);\n"
          "cycle_t wake_horizon(cycle_t now) { return now + 2; }\n"}},
        scan_options{});
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings.front().rule, "cycle-step");
    EXPECT_EQ(r.findings.front().line, 4u);
}

TEST(detlint_engine, sim_kernel_owns_the_wake_protocol) {
    // The simulator itself implements wake_at = max(now_ + 1, ...) -- the
    // rule stays out of src/sim/.
    const scan_result r = detlint::scan_sources(
        {{"src/sim/step.cpp",
          "using cycle_t = unsigned long long;\n"
          "cycle_t bump(cycle_t now) { return now + 1; }\n"}},
        scan_options{});
    EXPECT_TRUE(r.findings.empty()) << r.findings.front().message;
}

TEST(detlint_engine, profile_clock_read_is_flagged_in_every_directory) {
    // No directory or function name exempts a host-clock read: a
    // profile_* body is flagged under src/svc/ exactly as under
    // src/core/, and banned libc calls get the same treatment as the
    // chrono clock types.
    const std::string body =
        "#include <ctime>\n"
        "unsigned long profile_now_ns() {\n"
        "    struct timespec ts;\n"
        "    clock_gettime(0, &ts);\n"
        "    return static_cast<unsigned long>(ts.tv_nsec);\n"
        "}\n";
    for (const char* path :
         {"src/svc/profile_clock.cpp", "src/core/profile_clock.cpp"}) {
        const scan_result flagged =
            detlint::scan_sources({{path, body}}, scan_options{});
        ASSERT_EQ(flagged.findings.size(), 1u) << path;
        EXPECT_EQ(flagged.findings.front().rule, "nondet-source");
        EXPECT_EQ(flagged.findings.front().line, 4u);
    }
}

TEST(detlint_engine, rule_filter_restricts_the_run) {
    scan_options opts;
    opts.rules.insert("include-guard");
    const scan_result r = detlint::scan_files(
        {fixture("nondet_rand_call.cpp"), fixture("missing_pragma_once.hpp")},
        opts);
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings.front().rule, "include-guard");
}

TEST(detlint_engine, declarations_are_not_confused_with_calls) {
    // `rng rand(seed)` is a shadowing declaration, not a call to rand();
    // `std::rand()` is a call, not a declaration.
    const scan_result r = detlint::scan_sources(
        {{"fake/a.cpp",
          "struct rng { explicit rng(int) {} };\n"
          "void f(int seed) { rng rand(seed); }\n"
          "int g() { return std::rand(); }\n"}},
        scan_options{});
    ASSERT_EQ(r.findings.size(), 2u);
    EXPECT_EQ(r.findings[0].line, 2u);
    EXPECT_EQ(r.findings[0].rule, "libc-shadow");
    EXPECT_EQ(r.findings[1].line, 3u);
    EXPECT_EQ(r.findings[1].rule, "nondet-source");
}

TEST(detlint_engine, member_access_is_not_a_libc_shadow) {
    const scan_result r = detlint::scan_sources(
        {{"fake/a.cpp",
          "struct stats { unsigned long completed; };\n"
          "unsigned long f(const stats& s) { return s.completed + 1; }\n"
          "struct cfg { double time_scale; };\n"
          "double g(const cfg& c) { return c.time_scale; }\n"}},
        scan_options{});
    EXPECT_TRUE(r.findings.empty()) << r.findings.front().message;
}

TEST(detlint_engine, pragma_once_header_is_clean) {
    const scan_result r = detlint::scan_sources(
        {{"fake/a.hpp",
          "// leading comment is fine\n"
          "#pragma once\n"
          "#include <vector>\n"
          "inline int f() { return 1; }\n"}},
        scan_options{});
    EXPECT_TRUE(r.findings.empty()) << r.findings.front().message;
}

TEST(detlint_engine, obs_and_stats_own_the_stream_exporters) {
    // The identical std::ostream emission is the sanctioned exporter
    // inside src/obs/ and src/stats/, and a metrics bypass anywhere else.
    const std::string body =
        "#include <ostream>\n"
        "void emit(std::ostream& os, unsigned long long n) { os << n; }\n";
    const scan_result exempt = detlint::scan_sources(
        {{"src/obs/exporter.cpp", body}, {"src/stats/writer.cpp", body}},
        scan_options{});
    EXPECT_TRUE(exempt.findings.empty())
        << exempt.findings.front().message;
    const scan_result flagged = detlint::scan_sources(
        {{"src/harness/report.cpp", body}}, scan_options{});
    ASSERT_EQ(flagged.findings.size(), 1u);
    EXPECT_EQ(flagged.findings.front().rule, "metrics-bypass");
    EXPECT_EQ(flagged.findings.front().line, 2u);
}

TEST(detlint_engine, stat_aggregation_into_locals_is_not_a_bypass) {
    // `out.retries += m.retries` merges trial results into a value-type
    // aggregate -- only member-style owners (`stats_`, `this->...`) hold
    // live counters, so only those writes are the old bypassing API.
    const scan_result r = detlint::scan_sources(
        {{"src/harness/agg.cpp",
          "struct trial { unsigned long long retries = 0; };\n"
          "trial sum(const trial& m) {\n"
          "    trial out;\n"
          "    out.retries += m.retries;\n"
          "    return out;\n"
          "}\n"}},
        scan_options{});
    EXPECT_TRUE(r.findings.empty()) << r.findings.front().message;
}

TEST(detlint_engine, this_qualified_stat_writes_are_flagged) {
    const scan_result r = detlint::scan_sources(
        {{"src/core/widget.cpp",
          "struct widget {\n"
          "    unsigned long long serviced = 0;\n"
          "    void f() { this->serviced += 1; }\n"
          "};\n"}},
        scan_options{});
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings.front().rule, "metrics-bypass");
    EXPECT_EQ(r.findings.front().line, 3u);
}

TEST(detlint_engine, suppression_must_name_the_right_rule) {
    // An allow for a different rule does not silence the finding.
    const scan_result r = detlint::scan_sources(
        {{"fake/a.cpp",
          "#include <cstdlib>\n"
          "int f() { return std::rand(); } // detlint:allow(float-cycle)\n"}},
        scan_options{});
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings.front().rule, "nondet-source");
}

// ---------------------------------------------------------------------------
// Call-graph contracts (the hotpath-* gate)

TEST(detlint_callgraph, reachability_flows_through_helpers) {
    // The violation sits one hop from the root: tick -> stash.
    const scan_result r = detlint::scan_sources(
        {{"src/sim/a.cpp",
          "#include <vector>\n"
          "struct port {\n"
          "    std::vector<int> q_;\n"
          "    void stash(int v) { q_.push_back(v); }\n"
          "    void tick(unsigned long long) { stash(1); }\n"
          "};\n"}},
        scan_options{});
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings.front().rule, "hotpath-alloc");
    EXPECT_EQ(r.findings.front().line, 4u);
    // Provenance names both the intermediate hop and the root.
    EXPECT_NE(r.findings.front().message.find("'tick'"),
              std::string::npos)
        << r.findings.front().message;
}

TEST(detlint_callgraph, cold_code_is_not_checked) {
    // setup() is unreachable from any root: its growth is the sanctioned
    // assembly-time idiom and needs no suppression.
    const scan_result r = detlint::scan_sources(
        {{"src/sim/a.cpp",
          "#include <vector>\n"
          "struct port {\n"
          "    std::vector<int> q_;\n"
          "    void setup() { q_.push_back(0); }\n"
          "    void tick(unsigned long long) {}\n"
          "};\n"}},
        scan_options{});
    EXPECT_TRUE(r.findings.empty()) << r.findings.front().message;
}

TEST(detlint_callgraph, member_calls_do_not_reach_free_functions) {
    // s_.flush() resolves among member definitions only; the free
    // flush() and its allocation stay cold.
    const scan_result r = detlint::scan_sources(
        {{"src/sim/a.cpp",
          "#include <vector>\n"
          "std::vector<int> g;\n"
          "void flush() { g.push_back(1); }\n"
          "struct sink { void flush() {} };\n"
          "struct port {\n"
          "    sink s_;\n"
          "    void tick(unsigned long long) { s_.flush(); }\n"
          "};\n"}},
        scan_options{});
    EXPECT_TRUE(r.findings.empty()) << r.findings.front().message;
}

TEST(detlint_callgraph, overloads_are_marked_conservatively) {
    // Token-level resolution cannot pick an overload: every definition
    // of the called name becomes hot, so both sites are flagged.
    const scan_result r = detlint::scan_sources(
        {{"src/sim/a.cpp",
          "#include <vector>\n"
          "struct port {\n"
          "    std::vector<int> q_;\n"
          "    void put(int v) { q_.push_back(v); }\n"
          "    void put(int v, int w) { q_.push_back(v + w); }\n"
          "    void tick(unsigned long long) { put(1); }\n"
          "};\n"}},
        scan_options{});
    ASSERT_EQ(r.findings.size(), 2u);
    EXPECT_EQ(r.findings[0].rule, "hotpath-alloc");
    EXPECT_EQ(r.findings[0].line, 4u);
    EXPECT_EQ(r.findings[1].rule, "hotpath-alloc");
    EXPECT_EQ(r.findings[1].line, 5u);
}

TEST(detlint_callgraph, lambda_bodies_inside_tick_are_hot) {
    // A lambda's tokens sit inside the enclosing body range, so hot-path
    // discipline applies to it without any extra graph machinery.
    const scan_result r = detlint::scan_sources(
        {{"src/sim/a.cpp",
          "#include <vector>\n"
          "struct port {\n"
          "    std::vector<int> q_;\n"
          "    void tick(unsigned long long) {\n"
          "        auto push = [&](int v) { q_.push_back(v); };\n"
          "        push(7);\n"
          "    }\n"
          "};\n"}},
        scan_options{});
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings.front().rule, "hotpath-alloc");
    EXPECT_EQ(r.findings.front().line, 5u);
}

TEST(detlint_callgraph, address_taken_functions_become_hot) {
    // &drain escapes into a function pointer a tick body installs: the
    // target must be treated as callable from the hot path.
    const scan_result r = detlint::scan_sources(
        {{"src/sim/a.cpp",
          "#include <vector>\n"
          "std::vector<int> g;\n"
          "void drain() { g.push_back(1); }\n"
          "struct port {\n"
          "    void (*fn_)() = nullptr;\n"
          "    void tick(unsigned long long) { fn_ = &drain; }\n"
          "};\n"}},
        scan_options{});
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings.front().rule, "hotpath-alloc");
    EXPECT_EQ(r.findings.front().line, 3u);
}

TEST(detlint_callgraph, explicit_template_calls_resolve) {
    const scan_result r = detlint::scan_sources(
        {{"src/sim/a.cpp",
          "#include <vector>\n"
          "struct port {\n"
          "    std::vector<int> q_;\n"
          "    template <typename T>\n"
          "    void put(T v) { q_.push_back(static_cast<int>(v)); }\n"
          "    void tick(unsigned long long) { put<long>(5); }\n"
          "};\n"}},
        scan_options{});
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings.front().rule, "hotpath-alloc");
    EXPECT_EQ(r.findings.front().line, 5u);
}

TEST(detlint_callgraph, recursive_cycles_terminate) {
    // Mutual recursion reachable from tick: the hot flag doubles as the
    // BFS visited set, so marking terminates and the site is flagged.
    const scan_result r = detlint::scan_sources(
        {{"src/sim/a.cpp",
          "#include <vector>\n"
          "struct port {\n"
          "    std::vector<int> q_;\n"
          "    void ping(int n);\n"
          "    void pong(int n) { if (n > 0) ping(n - 1); q_.push_back(n); }\n"
          "    void tick(unsigned long long) { ping(3); }\n"
          "};\n"
          "void port::ping(int n) { if (n > 0) pong(n - 1); }\n"}},
        scan_options{});
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings.front().rule, "hotpath-alloc");
    EXPECT_EQ(r.findings.front().line, 5u);
}

TEST(detlint_callgraph, commit_roots_require_a_clocked_class) {
    // A control-plane transaction commit (class without tick) is not a
    // clock edge; the same name in a ticking component is.
    const std::string cold =
        "#include <vector>\n"
        "struct txn {\n"
        "    std::vector<int> log_;\n"
        "    void commit() { log_.push_back(1); }\n"
        "};\n";
    const scan_result not_root = detlint::scan_sources(
        {{"src/core/txn.cpp", cold}}, scan_options{});
    EXPECT_TRUE(not_root.findings.empty())
        << not_root.findings.front().message;
    const std::string clocked =
        "#include <vector>\n"
        "struct dev {\n"
        "    std::vector<int> log_;\n"
        "    void tick(unsigned long long) {}\n"
        "    void commit() { log_.push_back(1); }\n"
        "};\n";
    const scan_result root = detlint::scan_sources(
        {{"src/core/dev.cpp", clocked}}, scan_options{});
    ASSERT_EQ(root.findings.size(), 1u);
    EXPECT_EQ(root.findings.front().rule, "hotpath-alloc");
    EXPECT_EQ(root.findings.front().line, 5u);
}

TEST(detlint_callgraph, sanctioned_boundaries_stop_propagation) {
    // Analysis code runs at admission time by design: an edge from a hot
    // tick into src/analysis/ does not drag that tree into the hot set.
    const scan_result r = detlint::scan_sources(
        {{"src/sim/a.cpp",
          "void record(int v);\n"
          "struct port { void tick(unsigned long long) { record(1); } };\n"},
         {"src/analysis/b.cpp",
          "#include <vector>\n"
          "std::vector<int> g;\n"
          "void record(int v) { g.push_back(v); }\n"}},
        scan_options{});
    EXPECT_TRUE(r.findings.empty()) << r.findings.front().message;
}

TEST(detlint_callgraph, std_qualified_calls_stay_external) {
    // std::sort never names project code, even when a project function
    // shares the name.
    const scan_result r = detlint::scan_sources(
        {{"src/sim/a.cpp",
          "#include <algorithm>\n"
          "#include <vector>\n"
          "std::vector<int> g;\n"
          "void sort() { g.push_back(1); }\n"
          "struct port {\n"
          "    int a_[4] = {3, 1, 2, 0};\n"
          "    void tick(unsigned long long) { std::sort(a_, a_ + 4); }\n"
          "};\n"}},
        scan_options{});
    EXPECT_TRUE(r.findings.empty()) << r.findings.front().message;
}

TEST(detlint_callgraph, queue_methods_are_roots_only_on_queue_classes) {
    // push() on an arbitrary class is not a root; the bounded queue
    // classes' push() is (components call it mid-tick).
    const std::string body =
        "#include <vector>\n"
        "struct CLASSNAME {\n"
        "    std::vector<int> q_;\n"
        "    void push(int v) { q_.push_back(v); }\n"
        "};\n";
    std::string plain = body;
    plain.replace(plain.find("CLASSNAME"), 9, "mailbox");
    const scan_result cold = detlint::scan_sources(
        {{"src/sim/mailbox.cpp", plain}}, scan_options{});
    EXPECT_TRUE(cold.findings.empty()) << cold.findings.front().message;
    std::string queue = body;
    queue.replace(queue.find("CLASSNAME"), 9, "latched_queue");
    const scan_result hot = detlint::scan_sources(
        {{"src/sim/lq.cpp", queue}}, scan_options{});
    ASSERT_EQ(hot.findings.size(), 1u);
    EXPECT_EQ(hot.findings.front().rule, "hotpath-alloc");
    EXPECT_EQ(hot.findings.front().line, 4u);
}

// ---------------------------------------------------------------------------
// SARIF emission

TEST(detlint_sarif, report_carries_rule_location_and_schema) {
    const std::vector<detlint::finding> fs = {
        {"/repo/src/sim/a.cpp", 12, "hotpath-alloc",
         "growable-container 'push_back' inside hot function 'tick'"}};
    std::ostringstream out;
    detlint::write_sarif(out, fs, "/repo");
    const std::string s = out.str();
    EXPECT_NE(s.find("\"version\": \"2.1.0\""), std::string::npos);
    EXPECT_NE(s.find("\"name\": \"detlint\""), std::string::npos);
    EXPECT_NE(s.find("\"ruleId\": \"hotpath-alloc\""), std::string::npos);
    // Repo-relative URI: required for code-scanning PR annotations.
    EXPECT_NE(s.find("\"uri\": \"src/sim/a.cpp\""), std::string::npos);
    EXPECT_NE(s.find("\"startLine\": 12"), std::string::npos);
    // The rule catalogue rides along so annotations have descriptions.
    for (const auto& rule : detlint::all_rules()) {
        EXPECT_NE(s.find("\"id\": \"" + std::string(rule.id) + "\""),
                  std::string::npos)
            << rule.id;
    }
}

TEST(detlint_sarif, empty_findings_still_produce_a_valid_run) {
    std::ostringstream out;
    detlint::write_sarif(out, {}, "");
    const std::string s = out.str();
    EXPECT_NE(s.find("\"results\": ["), std::string::npos);
    EXPECT_NE(s.find("$schema"), std::string::npos);
}

} // namespace
