#!/usr/bin/env bash
# Driver-level determinism gate: each sweep driver's --csv and --metrics
# files and its stdout table must be byte-identical under --threads 1,
# --threads 4 and --lockstep. The harness tests hold run_sweep to the
# same contract; this check covers the row composition in bench/ on top
# of it. Wired into ctest; runs standalone against a build tree whose
# bench targets are built (a few seconds at these sizes):
#
#   $ scripts/check_bench_exports.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir="${1:-build}"
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

status=0
for driver in fig6_synthetic resilience reconfig maintenance svc_storm; do
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
            >"$out/$driver.$mode.stdout"
    done
    if [[ ! -s "$out/$driver.threads1.csv" ]]; then
        echo "check_bench_exports: $driver wrote no --csv rows" >&2
        status=1
    fi
    for mode in threads4 lockstep; do
        for ext in csv metrics stdout; do
            ref="$out/$driver.threads1.$ext"
            got="$out/$driver.$mode.$ext"
            # A driver without a --metrics export writes neither file.
            [[ -e "$ref" || -e "$got" ]] || continue
            if ! cmp -s "$ref" "$got"; then
                echo "check_bench_exports: $driver $ext differs" \
                    "(--threads 1 vs $mode)" >&2
                status=1
            fi
        done
    done
done

if [[ $status -eq 0 ]]; then
    echo "check_bench_exports: csv, metrics and stdout identical across" \
        "--threads 1, --threads 4 and --lockstep."
fi
exit $status
