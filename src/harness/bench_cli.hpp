// Shared command-line handling for the bench/ drivers.
//
// One vocabulary for every driver; each driver accepts the flags it
// honours and rejects the others (exit 2), so no flag is silently
// ignored:
//
//   --trials N     trials per configuration
//   --cycles N     simulated cycles per trial
//   --threads N    worker threads for the trial sweep (0 = all cores)
//   --seed N       base RNG seed
//   --csv PATH     also dump machine-readable rows to PATH
//   --metrics PATH dump the obs::registry snapshot (deterministic CSV)
//   --trace PATH   dump the event trace (.json = Chrome trace, else CSV)
//   --profile      report simulator wall-clock profile after the run
//   --lockstep     force the cycle-stepped fallback engine
//   --help         usage
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/types.hpp"
#include "stats/csv.hpp"

namespace bluescale::harness {

struct bench_options {
    std::uint32_t trials = 10;
    cycle_t measure_cycles = 100'000;
    /// Worker threads for trial sweeps; 0 = all hardware threads.
    unsigned threads = 1;
    std::uint64_t seed = 1;
    std::string csv_path;     ///< empty = no CSV output
    std::string metrics_path; ///< empty = no metrics snapshot export
    std::string trace_path;   ///< empty = no event-trace export
    bool profile = false;     ///< wall-clock simulator profiling report
    /// Force simulator::engine::lockstep for every simulator the driver
    /// builds (equivalent to BLUESCALE_LOCKSTEP=1; exports are
    /// byte-identical either way -- this is the baseline side of the
    /// engine-equivalence contract).
    bool lockstep = false;
};

/// The flags of the shared vocabulary (--help is always accepted). A
/// driver passes the set it honours to parse_bench_cli.
enum bench_flag : std::uint32_t {
    flag_trials = 1u << 0,
    flag_cycles = 1u << 1,
    flag_threads = 1u << 2,
    flag_seed = 1u << 3,
    flag_csv = 1u << 4,
    flag_metrics = 1u << 5,
    flag_trace = 1u << 6,
    flag_profile = 1u << 7,
    flag_lockstep = 1u << 8,
};

/// What a scenario sweep driver honours (run_bench_sweep exports
/// --metrics and --trace; the rows go to --csv). --profile is not in it:
/// only a driver that reports the profile takes that flag.
inline constexpr std::uint32_t k_sweep_flags =
    flag_trials | flag_cycles | flag_threads | flag_seed | flag_csv |
    flag_metrics | flag_trace | flag_lockstep;

/// Parses the shared bench flags. `defaults` seeds the returned options
/// (pass the bench's historical defaults) and `honoured` is the set of
/// bench_flag values the driver acts on; any other flag is a usage error.
/// Numbers are unsigned decimal and must fit their field. On --help or a
/// malformed command line, prints usage (of the honoured flags) for
/// `what` and terminates the process (benches are leaf executables).
[[nodiscard]] bench_options parse_bench_cli(int argc, char** argv,
                                            const bench_options& defaults,
                                            const char* what,
                                            std::uint32_t honoured);

/// Opens the CSV sink when --csv was given: returns nullptr when no path
/// was requested, and exits with a diagnostic when the file cannot be
/// created (consistent across drivers).
[[nodiscard]] std::unique_ptr<stats::csv_writer>
open_bench_csv(const bench_options& opts, std::vector<std::string> headers);

/// Appends one row to an open --csv sink (no-op when `csv` is null): the
/// label cells in `row`, then obs::metric_cells(totals, names).
void add_bench_csv_row(stats::csv_writer* csv, std::vector<std::string> row,
                       const obs::snapshot& totals,
                       const std::vector<std::string>& names);

/// Writes the merged metrics snapshot when --metrics was given (no-op
/// otherwise). The export is snapshot::write_csv's sorted, deterministic
/// CSV, so the file is byte-identical across --threads settings. Exits
/// with a diagnostic when the file cannot be created.
void write_bench_metrics(const bench_options& opts, const obs::snapshot& snap);

/// Writes the event trace when --trace was given (no-op otherwise): a
/// path ending in ".json" gets Chrome trace-event JSON (chrome://tracing
/// / Perfetto), anything else the CSV form. Exits on I/O failure. When
/// the build has BLUESCALE_TRACE=OFF the export is valid but empty.
void write_bench_trace(const bench_options& opts,
                       const obs::trace_export& trace);

/// Runs one sweep of a driver. With `exported` set this is the driver's
/// one --metrics / --trace sweep: the merged metrics snapshot and trial
/// 0's event trace are collected and written (each only when its flag was
/// given). Collecting never changes the sweep's totals.
[[nodiscard]] sweep_result run_bench_sweep(const bench_options& opts,
                                           ic_kind kind, scenario s,
                                           bool exported);

} // namespace bluescale::harness
