#!/usr/bin/env bash
# Build the test suite under AddressSanitizer + UndefinedBehaviorSanitizer
# and run the allocation- and churn-heavy surfaces: the fault-injection
# campaigns, retry bookkeeping, and the reconfiguration subsystem, whose
# transactional staging/rollback swaps whole tree selections and task
# sets at runtime. A clean run demonstrates the rollback paths leak and
# corrupt nothing. The analysis suites run too: the schedulability
# kernel's bound arithmetic converts doubles to integers, which the
# float-cast-overflow check (added by the CMake preset) guards. The
# engine suites run the wake schedule's bit and heap indexing: its
# differential test, the simulator and BlueScale fabric tests, and the
# event-vs-lockstep equivalence runs (up to 258 slots).
#
#   $ scripts/check_asan_ubsan.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir="${1:-build-asan}"

cmake -B "$build_dir" -S . -DBLUESCALE_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" --target bluescale_tests \
    bluescale_resilience_tests -j"$(nproc)"

export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
export ASAN_OPTIONS="detect_leaks=1"

# Core fabric + analysis surfaces the reconfiguration layer leans on:
# schedulability (the kernel, its necessary filters and the sufficient
# portfolio), interface and whole-tree selection, the cheap-first ladder
# and the maintenance-corrected supply.
analysis_suites='schedulability*:*schedulability_*:is_schedulable.*'
analysis_suites+=':sufficient_portfolio.*:theorem1_beta.*:*dbf*'
analysis_suites+=':interface_selection.*:min_budget_for_period.*'
analysis_suites+=':select_interface.*:*selection_optimality*'
analysis_suites+=':theorem2_max_period.*:selection_ladder.*:*ladder_*'
analysis_suites+=':tree_analysis*:selection_failure_report.*:maintenance*'
engine_suites='simulator.*:wake_schedule.*:*wake_schedule_diff.*'
engine_suites+=':engine_equivalence.*'
"$build_dir/tests/bluescale_tests" \
    --gtest_filter="parameter_path.*:bluescale_ic.*:scale_element.*:testbench.*:$engine_suites:$analysis_suites"

# The whole resilience suite: fault campaigns, retries, health monitor,
# admission control, transactional rollback, watchdog shedding, and the
# parallel reconfiguration sweeps.
"$build_dir/tests/bluescale_resilience_tests"

echo "ASan/UBSan check passed."
