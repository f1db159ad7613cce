#include "harness/bench_cli.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>

#include "sim/simulator.hpp"

namespace bluescale::harness {

namespace {

[[noreturn]] void usage_and_exit(const char* argv0, const char* what,
                                 const bench_options& defaults,
                                 std::uint32_t honoured, int code) {
    const struct {
        bench_flag flag;
        const char* form;
        const char* help;
        bool numeric; ///< prints `value` as its default
        unsigned long long value;
    } docs[] = {
        {flag_trials, "--trials N", "trials per configuration", true,
         defaults.trials},
        {flag_cycles, "--cycles N", "simulated cycles per trial", true,
         defaults.measure_cycles},
        {flag_threads, "--threads N",
         "worker threads for the trial sweep; 0 = all cores", true,
         defaults.threads},
        {flag_seed, "--seed N", "base RNG seed", true, defaults.seed},
        {flag_csv, "--csv PATH", "also write machine-readable rows to PATH",
         false, 0},
        {flag_metrics, "--metrics PATH",
         "write the merged obs metrics snapshot (CSV)", false, 0},
        {flag_trace, "--trace PATH",
         "write the trial-0 event trace (.json = Chrome trace JSON, else "
         "CSV)",
         false, 0},
        {flag_profile, "--profile",
         "report simulator wall-clock profile after the run", false, 0},
        {flag_lockstep, "--lockstep",
         "force the cycle-stepped fallback engine (results are "
         "byte-identical to the event engine)",
         false, 0},
    };
    std::fprintf(stderr, "%s -- %s\nusage: %s", argv0, what, argv0);
    for (const auto& d : docs) {
        if ((honoured & d.flag) != 0) std::fprintf(stderr, " [%s]", d.form);
    }
    std::fputc('\n', stderr);
    for (const auto& d : docs) {
        if ((honoured & d.flag) == 0) continue;
        std::fprintf(stderr, "  %-14s %s", d.form, d.help);
        if (d.numeric) std::fprintf(stderr, " (default %llu)", d.value);
        std::fputc('\n', stderr);
    }
    std::exit(code);
}

/// Where a parse error reports: the usage the driver prints.
struct usage_context {
    const char* argv0;
    const char* what;
    const bench_options& defaults;
    std::uint32_t honoured;

    [[noreturn]] void fail() const {
        usage_and_exit(argv0, what, defaults, honoured, 2);
    }
};

/// An unsigned decimal no larger than `max`. strtoull alone would accept
/// leading space and a sign (wrapping "-1" to 2^64 - 1) and saturate on
/// overflow, so the first character must be a digit and ERANGE is fatal.
std::uint64_t parse_u64(const usage_context& usage, const char* flag,
                        const char* text, std::uint64_t max) {
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    const bool digits_only = text[0] >= '0' && text[0] <= '9' &&
                             *end == '\0';
    if (!digits_only || errno == ERANGE || v > max) {
        std::fprintf(stderr,
                     "%s: %s expects an integer in [0, %llu], got '%s'\n",
                     usage.argv0, flag, static_cast<unsigned long long>(max),
                     text);
        usage.fail();
    }
    return v;
}

} // namespace

bench_options parse_bench_cli(int argc, char** argv,
                              const bench_options& defaults,
                              const char* what, std::uint32_t honoured) {
    const usage_context usage{argv[0], what, defaults, honoured};
    bench_options opts = defaults;
    const auto number = [&](const char* flag, const char* text,
                            std::uint64_t max) {
        return parse_u64(usage, flag, text, max);
    };

    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        const auto value = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s expects a value\n", argv[0],
                             arg);
                usage.fail();
            }
            return argv[++i];
        };
        // A known flag this driver does not act on is an error, not a
        // no-op: the caller would otherwise wait for output that never
        // comes.
        const auto accept = [&](bench_flag flag) {
            if ((honoured & flag) == 0) {
                std::fprintf(stderr, "%s: %s is not supported by this"
                                     " driver\n",
                             argv[0], arg);
                usage.fail();
            }
            return true;
        };

        if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
            usage_and_exit(argv[0], what, defaults, honoured, 0);
        } else if (std::strcmp(arg, "--trials") == 0 && accept(flag_trials)) {
            opts.trials = static_cast<std::uint32_t>(number(
                arg, value(), std::numeric_limits<std::uint32_t>::max()));
        } else if (std::strcmp(arg, "--cycles") == 0 && accept(flag_cycles)) {
            opts.measure_cycles = number(
                arg, value(), std::numeric_limits<cycle_t>::max());
        } else if (std::strcmp(arg, "--threads") == 0 &&
                   accept(flag_threads)) {
            opts.threads = static_cast<unsigned>(number(
                arg, value(), std::numeric_limits<unsigned>::max()));
        } else if (std::strcmp(arg, "--seed") == 0 && accept(flag_seed)) {
            opts.seed = number(arg, value(),
                               std::numeric_limits<std::uint64_t>::max());
        } else if (std::strcmp(arg, "--csv") == 0 && accept(flag_csv)) {
            opts.csv_path = value();
        } else if (std::strcmp(arg, "--metrics") == 0 &&
                   accept(flag_metrics)) {
            opts.metrics_path = value();
        } else if (std::strcmp(arg, "--trace") == 0 && accept(flag_trace)) {
            opts.trace_path = value();
        } else if (std::strcmp(arg, "--profile") == 0 &&
                   accept(flag_profile)) {
            opts.profile = true;
        } else if (std::strcmp(arg, "--lockstep") == 0 &&
                   accept(flag_lockstep)) {
            opts.lockstep = true;
        } else if (arg[0] == '-' && arg[1] != '\0') {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0], arg);
            usage.fail();
        } else {
            std::fprintf(stderr, "%s: unexpected argument '%s'\n", argv[0],
                         arg);
            usage.fail();
        }
    }
    // Applied here so every driver honours the flag without plumbing it
    // through its experiment config: all simulators the run constructs
    // pick the default engine up.
    if (opts.lockstep) {
        simulator::set_default_engine(simulator::engine::lockstep);
    }
    return opts;
}

std::unique_ptr<stats::csv_writer>
open_bench_csv(const bench_options& opts, std::vector<std::string> headers) {
    if (opts.csv_path.empty()) return nullptr;
    auto csv = std::make_unique<stats::csv_writer>(opts.csv_path,
                                                   std::move(headers));
    if (!csv->ok()) {
        std::fprintf(stderr, "cannot write %s\n", opts.csv_path.c_str());
        std::exit(1);
    }
    return csv;
}

void add_bench_csv_row(stats::csv_writer* csv, std::vector<std::string> row,
                       const obs::snapshot& totals,
                       const std::vector<std::string>& names) {
    if (csv == nullptr) return;
    for (auto& cell : obs::metric_cells(totals, names)) {
        row.push_back(std::move(cell));
    }
    csv->add_row(row);
}

namespace {

/// Shared open/verify for the obs exporters (consistent with
/// open_bench_csv: exporting is the point of the flag, so failing to
/// create the file is fatal).
// The bench exporter endpoint: metrics and traces leave the process
// here, through the obs formatters.
// detlint:allow(metrics-bypass): exporter endpoint, writes obs output
std::ofstream open_export_file(const std::string& path) {
    std::ofstream os(path); // detlint:allow(metrics-bypass): same endpoint
    if (!os) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        std::exit(1);
    }
    return os;
}

} // namespace

void write_bench_metrics(const bench_options& opts,
                         const obs::snapshot& snap) {
    if (opts.metrics_path.empty()) return;
    auto os = open_export_file(opts.metrics_path);
    snap.write_csv(os);
}

void write_bench_trace(const bench_options& opts,
                       const obs::trace_export& trace) {
    if (opts.trace_path.empty()) return;
    auto os = open_export_file(opts.trace_path);
    const std::string& p = opts.trace_path;
    const bool json =
        p.size() >= 5 && p.compare(p.size() - 5, 5, ".json") == 0;
    if (json) {
        trace.write_chrome_json(os);
    } else {
        trace.write_csv(os);
    }
}

sweep_result run_bench_sweep(const bench_options& opts, ic_kind kind,
                             scenario s, bool exported) {
    s.collect_metrics = exported && !opts.metrics_path.empty();
    s.collect_trace = exported && !opts.trace_path.empty();
    sweep_result r = run_sweep(kind, s);
    if (s.collect_metrics) write_bench_metrics(opts, r.metrics);
    if (s.collect_trace) write_bench_trace(opts, r.trace);
    return r;
}

} // namespace bluescale::harness
