#!/usr/bin/env bash
# Driver-level export gate for the ten scenario drivers:
#   * each driver's --metrics file, its --trace file (CSV form), its
#     stdout table and its --csv file hold more than a header line (the
#     trace only when the build records traces) and are byte-identical
#     under --threads 1, --threads 4 and --lockstep;
#   * stdout at --seed 3 differs from stdout at --seed 1, so a driver that
#     accepts --seed but ignores it fails.
# and for the seven other drivers, that each output flag it does not
# honour is refused with exit 2 rather than accepted and ignored.
# The harness tests hold run_sweep to the same contract; this check covers
# the row composition and flag handling in bench/ on top of it. Wired into
# ctest; runs standalone against a build tree whose bench targets are
# built (a few seconds at these sizes):
#
#   $ scripts/check_bench_exports.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir="${1:-build}"
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

drivers=(fig6_synthetic extended_baselines ablation_alpha
         ablation_buffer_depth ablation_memctrl ablation_server_policy
         resilience reconfig maintenance svc_storm)

# A BLUESCALE_TRACE=OFF build writes valid but empty traces: compare them,
# but do not require events.
trace_rows=1
if grep -q '^BLUESCALE_TRACE:BOOL=OFF' "$build_dir/CMakeCache.txt" \
    2>/dev/null; then
    trace_rows=0
fi

status=0
fail() {
    echo "check_bench_exports: $*" >&2
    status=1
}

for driver in "${drivers[@]}"; do
    exe="$build_dir/bench/$driver"
    if [[ ! -x "$exe" ]]; then
        echo "check_bench_exports: $exe not built" >&2
        exit 1
    fi
    for mode in threads1 threads4 lockstep; do
        case "$mode" in
        threads1) flags=(--threads 1) ;;
        threads4) flags=(--threads 4) ;;
        lockstep) flags=(--threads 1 --lockstep) ;;
        esac
        "$exe" --trials 2 --cycles 4000 --seed 3 "${flags[@]}" \
            --csv "$out/$driver.$mode.csv" \
            --metrics "$out/$driver.$mode.metrics" \
            --trace "$out/$driver.$mode.trace" \
            >"$out/$driver.$mode.stdout"
    done
    for ext in metrics trace stdout csv; do
        ref="$out/$driver.threads1.$ext"
        if [[ ! -e "$ref" ]] || { [[ $ext != trace || $trace_rows -eq 1 ]] &&
            [[ $(wc -l <"$ref") -lt 2 ]]; }; then
            fail "$driver wrote no $ext rows"
        fi
        for mode in threads4 lockstep; do
            if ! cmp -s "$ref" "$out/$driver.$mode.$ext"; then
                fail "$driver $ext differs (--threads 1 vs $mode)"
            fi
        done
    done
    "$exe" --trials 2 --cycles 4000 --seed 1 --threads 1 \
        >"$out/$driver.seed1.stdout"
    if cmp -s "$out/$driver.threads1.stdout" "$out/$driver.seed1.stdout"; then
        fail "$driver stdout is the same at --seed 1 and --seed 3"
    fi
done

# Each of these drivers writes only what its own flags name: a flag it
# would ignore must fail the parse (exit 2) before any work runs.
refusals=("wcrt_validation --csv" "wcrt_validation --metrics"
          "wcrt_validation --trace" "latency_breakdown --csv"
          "latency_breakdown --metrics" "ablation_channels --csv"
          "ablation_channels --metrics" "acceptance_ratio --csv"
          "acceptance_ratio --metrics" "ablation_interface_selection --csv"
          "ablation_interface_selection --metrics" "fig5_scalability --metrics"
          "fig5_scalability --trace" "fig7_case_study --metrics"
          "fig7_case_study --trace")
for refusal in "${refusals[@]}"; do
    read -r driver flag <<<"$refusal"
    exe="$build_dir/bench/$driver"
    if [[ ! -x "$exe" ]]; then
        echo "check_bench_exports: $exe not built" >&2
        exit 1
    fi
    code=0
    "$exe" "$flag" "$out/refused" >/dev/null 2>&1 || code=$?
    if [[ $code -ne 2 || -e "$out/refused" ]]; then
        fail "$driver accepted $flag (exit $code), which it does not honour"
    fi
done

if [[ $status -eq 0 ]]; then
    echo "check_bench_exports: ${#drivers[@]} drivers: metrics, trace, csv" \
        "and stdout identical across --threads 1, --threads 4 and" \
        "--lockstep; stdout follows --seed. ${#refusals[@]} ignored flags" \
        "refused with exit 2."
fi
exit $status
