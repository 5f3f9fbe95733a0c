#!/bin/sh
# Milestone and throughput check on a fresh run: reruns the data and ingest
# experiments of experiments/core.json once, into a temporary directory,
# and gates those reports, so every floor measures the code under test
# rather than a committed number. It reads no checked-in BENCH_*.json.
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
# Ingestion floor: the repository's per-event ingest path must sustain at
# least this many metric events per second (a run on a 2-vCPU host clears
# it by several times, so a trip means the path collapsed, not that the
# runner was slow).
EVENTS_FLOOR=1000000

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

if ! go run ./cmd/grid3exp run experiments/core.json -only data,ingest -out-dir "$TMP" > "$TMP/exp.log" 2>&1; then
    cat "$TMP/exp.log"
    echo "bench-check: FAIL the data and ingest experiments did not run" >&2
    exit 1
fi

status=0

# Data-plane milestone check: the managed plane must sustain the §7 target
# across every seed (the minimum, not the mean — one bad seed is a
# regression).
DATA="$TMP/BENCH_data.json"
if tb_min=$(jqget "$DATA" '.managed_tb_per_day_min' "managed_tb_per_day_min"); then
    verdict=$(echo "$tb_min" | awk -v floor="$TB_FLOOR" '{
        if ($1 + 0 < floor + 0)
            printf "FAIL managed min %.2f TB/day below the %.1f TB/day milestone\n", $1, floor
        else
            printf "ok managed min %.2f TB/day (floor %.1f)\n", $1, floor
    }')
    echo "bench-check: data sweep: $verdict"
    case "$verdict" in
        FAIL*) status=1 ;;
    esac
else
    status=1
fi

# Ingestion check: per-event ingest throughput over the floor, with the
# usage-ledger audit fully verified.
INGEST="$TMP/BENCH_ingest.json"
if eps=$(jqget "$INGEST" '.events_per_second' "events_per_second"); then
    verdict=$(echo "$eps" | awk -v floor="$EVENTS_FLOOR" '{
        if ($1 + 0 < floor + 0)
            printf "FAIL ingest %.0f events/s below the %d events/s floor\n", $1, floor
        else
            printf "ok ingest %.0f events/s (floor %d)\n", $1, floor
    }')
    echo "bench-check: ingest sweep: $verdict"
    case "$verdict" in
        FAIL*) status=1 ;;
    esac
    # tostring keeps `false` distinguishable from a missing key under
    # jq -e (which treats a bare false output as failure).
    audited=$(jqget "$INGEST" 'if has("audit_verified") then .audit_verified | tostring else empty end' "audit_verified") || status=1
    if [ -n "${audited:-}" ] && [ "$audited" != "true" ]; then
        echo "bench-check: ingest sweep: FAIL audit_verified is $audited" >&2
        status=1
    fi
else
    status=1
fi

exit $status
