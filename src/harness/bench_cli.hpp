// Shared command-line handling for the bench/ drivers.
//
// One vocabulary for every driver:
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

/// Parses the shared bench flags. `defaults` seeds the returned options
/// (pass the bench's historical defaults). Numbers are unsigned decimal
/// and must fit their field. On --help or a malformed command line,
/// prints usage for `what` and terminates the process (benches are leaf
/// executables).
[[nodiscard]] bench_options parse_bench_cli(int argc, char** argv,
                                            const bench_options& defaults,
                                            const char* what);

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
