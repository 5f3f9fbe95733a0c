#!/bin/sh
# Benchmark regression check: rerun the tracked hot-path benchmarks at a
# short benchtime and compare against the checked-in BENCH_sim.json
# baselines. Fails when ns/op regresses more than the threshold or when
# allocs/op grows at all (the hot path is supposed to stay allocation-flat).
#
# Baseline values are read with jq path lookups that fail loudly when a
# key is missing or null — a renamed or dropped field is a broken gate,
# not a silently skipped check.
#
# Short benchtimes are noisy, so CI runs this as a non-blocking job: a red
# check is a prompt to rerun scripts/bench.sh on quiet hardware, not proof
# of a regression. Runs from any directory: ./scripts/bench-check.sh
set -eu
cd "$(dirname "$0")/.."

BASE=${1:-BENCH_sim.json}
DATA_BASE=${2:-BENCH_data.json}
SERVE_BASE=${3:-BENCH_serve.json}
INGEST_BASE=${4:-BENCH_ingest.json}
# ns/op may regress up to 30% before this trips (short-run noise margin).
NS_SLACK=1.3
# allocs/op must stay flat, modulo a small absolute allowance: the short
# CI rerun often completes a single iteration, so one-time setup
# allocations amortize less than in the longer checked-in baseline run.
ALLOC_SLACK=64
# The §7 milestone floor: managed runs must sustain at least 2 TB/day.
TB_FLOOR=2.0
# Ingestion floor: the checked-in ingest sweep must show the repository's
# per-event ingest path sustaining at least this many metric events per
# second (advisory — the checked-in run clears it by several times, so a
# trip means the path collapsed, not that the runner was slow).
EVENTS_FLOOR=1000000
# Ingress floor: the checked-in serve bench must show the daemon sustaining
# at least this many good requests per second (well under what any modern
# machine produces; this catches a collapsed ingress path, not slow iron).
RPS_FLOOR=50
BENCHES='BenchmarkEngineStep$|BenchmarkScenarioDay$'

command -v jq >/dev/null 2>&1 || {
    echo "bench-check: jq is required (baseline lookups)" >&2
    exit 1
}

if [ ! -f "$BASE" ]; then
    echo "bench-check: baseline $BASE not found" >&2
    exit 1
fi

# jqget FILE FILTER LABEL — exact path lookup; a missing or null value is
# a loud failure naming the key, never an empty string.
jqget() {
    if ! jq -er "$2" "$1"; then
        echo "bench-check: $3 missing from $1" >&2
        return 1
    fi
}

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

go test -run '^$' -bench "$BENCHES" -benchmem -benchtime 0.2s . > "$RAW" 2>&1 \
    || { cat "$RAW"; exit 1; }
cat "$RAW"

if ! grep -q '^Benchmark' "$RAW"; then
    echo "bench-check: no benchmark output produced" >&2
    exit 1
fi

status=0
for name in BenchmarkEngineStep BenchmarkScenarioDay; do
    base_ns=$(jqget "$BASE" "first(.benchmarks[] | select(.name == \"$name\") | .ns_per_op)" "$name ns_per_op") || { status=1; continue; }
    base_allocs=$(jqget "$BASE" "first(.benchmarks[] | select(.name == \"$name\") | .allocs_per_op)" "$name allocs_per_op") || { status=1; continue; }
    current=$(awk -v name="$name" '
        $1 ~ "^" name "(-[0-9]+)?$" {
            ns = ""; allocs = ""
            for (i = 2; i <= NF; i++) {
                if ($(i+1) == "ns/op")     ns = $i
                if ($(i+1) == "allocs/op") allocs = $i
            }
            print ns, allocs
            exit
        }
    ' "$RAW")
    if [ -z "$current" ]; then
        echo "bench-check: $name did not run" >&2
        status=1
        continue
    fi
    verdict=$(echo "$base_ns $base_allocs $current" | awk -v slack="$NS_SLACK" -v aslack="$ALLOC_SLACK" '{
        base_ns = $1; base_allocs = $2; ns = $3; allocs = $4
        if (ns > base_ns * slack)
            printf "FAIL ns/op %s vs baseline %s (limit %.0f)\n", ns, base_ns, base_ns * slack
        else if (allocs != "" && allocs + 0 > base_allocs + aslack)
            printf "FAIL allocs/op %s vs baseline %s (+%d allowance)\n", allocs, base_allocs, aslack
        else
            printf "ok ns/op %s (baseline %s), allocs/op %s (baseline %s)\n", ns, base_ns, allocs, base_allocs
    }')
    echo "bench-check: $name: $verdict"
    case "$verdict" in
        FAIL*) status=1 ;;
    esac
done

# Data-plane milestone check: the checked-in data sweep must show the
# managed plane sustaining the §7 target across every seed (the minimum,
# not the mean — one bad seed is a regression).
if [ -f "$DATA_BASE" ]; then
    if tb_min=$(jqget "$DATA_BASE" '.managed_tb_per_day_min' "managed_tb_per_day_min"); then
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
else
    echo "bench-check: $DATA_BASE not found, skipping the data-plane check" >&2
fi

# Serve bench check: the checked-in grid3d load report must show the
# ingress boundary sustaining a sane request rate with its goodput intact.
if [ -f "$SERVE_BASE" ]; then
    rps=$(jqget "$SERVE_BASE" '.sustained_rps' "sustained_rps") || status=1
    goodput=$(jqget "$SERVE_BASE" '.goodput' "goodput") || status=1
    if [ -n "${rps:-}" ] && [ -n "${goodput:-}" ]; then
        verdict=$(echo "$rps $goodput" | awk -v floor="$RPS_FLOOR" '{
            if ($1 + 0 < floor + 0)
                printf "FAIL sustained %.1f req/s below the %.0f req/s floor\n", $1, floor
            else if ($2 + 0 < 0.9)
                printf "FAIL goodput %.3f below 0.9\n", $2
            else
                printf "ok sustained %.1f req/s (floor %.0f), goodput %.3f\n", $1, floor, $2
        }')
        echo "bench-check: serve bench: $verdict"
        case "$verdict" in
            FAIL*) status=1 ;;
        esac
    fi
else
    echo "bench-check: $SERVE_BASE not found, skipping the serve check" >&2
fi

# Ingestion check: the checked-in ingest sweep must show per-event ingest
# throughput over the floor with its usage-ledger audit fully verified.
if [ -f "$INGEST_BASE" ]; then
    if eps=$(jqget "$INGEST_BASE" '.events_per_second' "events_per_second"); then
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
        audited=$(jqget "$INGEST_BASE" 'if has("audit_verified") then .audit_verified | tostring else empty end' "audit_verified") || status=1
        if [ -n "${audited:-}" ] && [ "$audited" != "true" ]; then
            echo "bench-check: ingest sweep: FAIL audit_verified is $audited in $INGEST_BASE" >&2
            status=1
        fi
    else
        status=1
    fi
else
    echo "bench-check: $INGEST_BASE not found, skipping the ingest check" >&2
fi

exit $status
