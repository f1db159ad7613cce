#!/usr/bin/env bash
# Captures the committed micro-benchmark snapshot, BENCH_micro_hotpaths.json
# at the repo root: every bench/micro_hotpaths case, machine-normalized
# against the bm_sbf arithmetic kernel so two snapshots taken on different
# hardware (or a noisy CI runner) stay comparable -- the guarded quantity
# is each case's cost in bm_sbf units, not raw nanoseconds. Keys are
# sorted, values rounded, so regenerating on the same machine produces a
# minimal diff.
#
# Also captures BENCH_megascale.json from bench/megascale: the mega-scale
# whole-tree selection curves. There the guarded quantities are the
# deterministic work counters (tests_run / points_checked per depth) --
# bit-identical across machines and thread counts by construction, so the
# gate needs no normalization and no tolerance for machine noise: a drift
# means the selection algorithm itself changed its work. Wall-clock ms in
# that snapshot is trend-reading only, never gated.
#
#   $ scripts/bench_snapshot.sh [build-dir]          # refresh the snapshots
#   $ scripts/bench_snapshot.sh --check [build-dir]  # CI perf-smoke gate
#
# --check reruns the benches and fails (exit 1) when an idle-heavy engine
# case (the event scheduler's pop/advance, many-sleeper and
# predicate-dispatch paths)
# or an analysis-kernel case (schedulability test, interface and tree
# selection) regresses more than 25% against the committed snapshot, or
# when a megascale work counter grows more than 25% over the committed
# curve (compared at the depths the shallow --check run shares with the
# snapshot). Both gates always run and print their verdicts; the script
# exits 1 when either failed. The full megascale refresh sweeps to depth
# 8/10 and takes minutes; --check stays shallow.
set -euo pipefail

cd "$(dirname "$0")/.."

mode="snapshot"
if [[ "${1:-}" == "--check" ]]; then
    mode="check"
    shift
fi
build_dir="${1:-build}"
snapshot="BENCH_micro_hotpaths.json"
mega_snapshot="BENCH_megascale.json"

cmake --build "$build_dir" --target micro_hotpaths megascale \
    -j"$(nproc)" >/dev/null

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT
"$build_dir/bench/micro_hotpaths" \
    --benchmark_out="$raw" --benchmark_out_format=json >/dev/null

micro_failed=0
python3 - "$raw" "$snapshot" "$mode" <<'PY' || micro_failed=1
import json
import sys

raw_path, snapshot_path, mode = sys.argv[1], sys.argv[2], sys.argv[3]

BASELINE = "bm_sbf"
# The perf-smoke gate: the engine paths and the analysis kernels (the
# schedulability test, one-shot and prepared, and interface selection per
# port and per tree). Model-level cases (SE tick, memory controller)
# drift with model features and are recorded for trend-reading, not gated.
GUARDED_PREFIXES = (
    "bm_event_engine_pop_advance",
    "bm_event_engine_sleepers",
    "bm_run_until_template_predicate",
    "bm_schedulability_test",
    "bm_schedulability_sufficient",
    "bm_select_interface",
    "bm_tree_selection_16_clients",
)
TOLERANCE = 0.25

with open(raw_path) as f:
    runs = [b for b in json.load(f)["benchmarks"]
            if b.get("run_type", "iteration") == "iteration"]

by_name = {b["name"]: float(b["real_time"]) for b in runs}
if BASELINE not in by_name:
    sys.exit(f"bench run is missing the {BASELINE} baseline case")
base_ns = by_name[BASELINE]

snap = {
    "schema": 1,
    "baseline_case": BASELINE,
    "baseline_ns": round(base_ns, 2),
    "cases": {
        name: {
            "ns": round(ns, 1),
            "vs_baseline": round(ns / base_ns, 3),
        }
        for name, ns in sorted(by_name.items())
        if name != BASELINE
    },
}

if mode == "snapshot":
    with open(snapshot_path, "w") as f:
        json.dump(snap, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {snapshot_path} ({len(snap['cases'])} cases, "
          f"{BASELINE} = {snap['baseline_ns']} ns)")
    sys.exit(0)

with open(snapshot_path) as f:
    committed = json.load(f)

failures = []
for name, fresh in sorted(snap["cases"].items()):
    if not name.startswith(GUARDED_PREFIXES):
        continue
    old = committed["cases"].get(name)
    if old is None:
        failures.append(f"{name}: not in committed snapshot "
                        f"(refresh {snapshot_path})")
        continue
    ratio = fresh["vs_baseline"] / old["vs_baseline"]
    verdict = "FAIL" if ratio > 1.0 + TOLERANCE else "ok"
    print(f"{verdict:4} {name}: {old['vs_baseline']} -> "
          f"{fresh['vs_baseline']} x{BASELINE} ({ratio - 1.0:+.1%})")
    if verdict == "FAIL":
        failures.append(name)

if failures:
    print(f"perf-smoke: {len(failures)} guarded case(s) regressed more "
          f"than {TOLERANCE:.0%}:")
    for f_ in failures:
        print(f"  {f_}")
    sys.exit(1)
print("perf-smoke: guarded engine and analysis cases within tolerance.")
PY

# --- mega-scale whole-tree selection ---------------------------------------

if [[ "$mode" == "snapshot" ]]; then
    # Full curves: depth 8 timing, depth 10 feasibility, depth-4 parity.
    # Takes minutes; that is the price of the committed snapshot.
    "$build_dir/bench/megascale" --json "$mega_snapshot"
    exit "$micro_failed"
fi

mega_raw="$(mktemp)"
trap 'rm -f "$raw" "$mega_raw"' EXIT
# The bench itself exits nonzero on a parity or determinism violation.
"$build_dir/bench/megascale" --check --json "$mega_raw"

mega_failed=0
python3 - "$mega_raw" "$mega_snapshot" <<'PY' || mega_failed=1
import json
import sys

fresh_path, snapshot_path = sys.argv[1], sys.argv[2]
# Deterministic work counters: identical on every machine and for every
# --threads (cache hits replay the miss's counters), so growth is a real
# algorithmic regression in the selection ladder/cache, not noise.
GUARDED_KEYS = ("tests_run", "points_checked")
TOLERANCE = 0.25

with open(fresh_path) as f:
    fresh = json.load(f)
with open(snapshot_path) as f:
    committed = json.load(f)

failures = []
for curve in ("timing", "feasibility"):
    # --check runs shallow; gate only the depths both runs share.
    for depth, got in sorted(fresh[curve].items()):
        want = committed[curve].get(depth)
        if want is None:
            continue
        for key in GUARDED_KEYS:
            old, new = want[key], got[key]
            ratio = new / old if old else (1.0 if new == 0 else 2.0)
            verdict = "FAIL" if ratio > 1.0 + TOLERANCE else "ok"
            print(f"{verdict:4} megascale {curve}/{depth}/{key}: "
                  f"{old} -> {new} ({ratio - 1.0:+.1%})")
            if verdict == "FAIL":
                failures.append(f"{curve}/{depth}/{key}")

if failures:
    print(f"perf-smoke: {len(failures)} megascale counter(s) grew more "
          f"than {TOLERANCE:.0%}:")
    for f_ in failures:
        print(f"  {f_}")
    sys.exit(1)
print("perf-smoke: megascale selection work within tolerance.")
PY

if (( micro_failed || mega_failed )); then
    echo "perf-smoke: failed (micro gate failed=$micro_failed," \
        "megascale gate failed=$mega_failed)"
    exit 1
fi
