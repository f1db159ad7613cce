#!/usr/bin/env bash
# Guard against dead modules: fails when a header under src/ is included
# only by its own .cpp and by tests/. Such a module is code that nothing
# in the simulator, the analysis, the drivers or the tools runs; its unit
# tests keep it compiling but do not make it needed. Delete it, or use it.
# Wired into ctest and CI's lint job; safe to run standalone:
#
#   $ scripts/check_dead_modules.sh
set -euo pipefail

cd "$(dirname "$0")/.."

# Headers whose only users may be tests, one per line with its reason:
#   analysis/exact_test.hpp -- the brute-force EDF oracle the
#     schedulability tests check the analytic test against.
allowed=" analysis/exact_test.hpp "

# Every tree whose code runs outside the unit tests.
users=(src bench examples tools perfbench)

status=0
checked=0
while IFS= read -r header; do
    rel=${header#src/}
    checked=$((checked + 1))
    if [[ "$allowed" == *" $rel "* ]]; then continue; fi
    own=${header%.hpp}.cpp
    includers=$(grep -rlF --include='*.cpp' --include='*.hpp' \
        "#include \"$rel\"" "${users[@]}" || true)
    others=$(printf '%s\n' "$includers" | grep -vxF -e "$own" -e '' || true)
    if [[ -z "$others" ]]; then
        echo "check_dead_modules: src/$rel is included only by its own" \
            ".cpp and tests/" >&2
        status=1
    fi
done < <(find src -name '*.hpp' | sort)

if [[ $status -eq 0 ]]; then
    echo "check_dead_modules: $checked headers under src/, each used" \
        "outside its own .cpp and tests/."
fi
exit $status
