#!/bin/sh
# Milestone check on a fresh run: reruns the data experiment of
# experiments/core.json once, into a temporary directory, and gates its
# report, so the floor measures the code under test rather than a
# committed number. It reads no checked-in BENCH_*.json.
#
# Report values are read with jq path lookups that fail loudly when a key
# is missing or null — a renamed or dropped field is a broken gate, not a
# silently skipped check.
#
# CI runs this as a non-blocking job. Runs from any directory:
# ./scripts/bench-check.sh
set -eu
cd "$(dirname "$0")/.."

# The §7 milestone floor: managed runs must sustain at least 2 TB/day.
TB_FLOOR=2.0

command -v jq >/dev/null 2>&1 || {
    echo "bench-check: jq is required (report lookups)" >&2
    exit 1
}

# jqget FILE FILTER LABEL — exact path lookup; a missing or null value is
# a loud failure naming the key, never an empty string.
jqget() {
    if ! jq -er "$2" "$1"; then
        echo "bench-check: $3 missing from $1" >&2
        return 1
    fi
}

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

if ! go run ./cmd/grid3exp run experiments/core.json -only data -out-dir "$TMP" > "$TMP/exp.log" 2>&1; then
    cat "$TMP/exp.log"
    echo "bench-check: FAIL the data experiment did not run" >&2
    exit 1
fi

# Data-plane milestone check: the managed plane must sustain the §7 target
# across every seed (the minimum, not the mean — one bad seed is a
# regression).
DATA="$TMP/BENCH_data.json"
tb_min=$(jqget "$DATA" '.managed_tb_per_day_min' "managed_tb_per_day_min")
verdict=$(echo "$tb_min" | awk -v floor="$TB_FLOOR" '{
    if ($1 + 0 < floor + 0)
        printf "FAIL managed min %.2f TB/day below the %.1f TB/day milestone\n", $1, floor
    else
        printf "ok managed min %.2f TB/day (floor %.1f)\n", $1, floor
}')
echo "bench-check: data sweep: $verdict"
case "$verdict" in
    FAIL*) exit 1 ;;
esac
