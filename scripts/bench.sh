#!/bin/sh
# Regenerate BENCH_sim.json: the engine hot-path and campaign-runner
# numbers this repo tracks across PRs (ns/op + allocs/op for the event
# engine vs its container/heap baseline, scenario-day throughput, and the
# parallel sweep's speedup with its bit-identical-output check).
#
# Runs from any directory: ./scripts/bench.sh
# Paper-exhibit benches (figures/tables) are separate:
#   go test -bench=. -benchtime=1x .
set -eu
cd "$(dirname "$0")/.."

OUT=${1:-BENCH_sim.json}
RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

# No tee: piping the test run would hide its exit status under set -e
# (dash has no pipefail), so capture to the temp file and replay it.
go test -run '^$' \
    -bench 'BenchmarkEngineStep$|BenchmarkEngineStepHeapBaseline|BenchmarkEngineCancel|BenchmarkScenarioDay|BenchmarkSweep' \
    -benchmem -benchtime 2s . > "$RAW" 2>&1 || { cat "$RAW"; exit 1; }
cat "$RAW"

if ! grep -q '^Benchmark' "$RAW"; then
    echo "bench.sh: no benchmark output produced, refusing to write an empty $OUT" >&2
    exit 1
fi

{
    echo '{'
    printf '  "generated_by": "scripts/bench.sh",\n'
    printf '  "go": "%s",\n' "$(go env GOVERSION)"
    printf '  "gomaxprocs": %s,\n' "${GOMAXPROCS:-$(getconf _NPROCESSORS_ONLN 2>/dev/null || nproc 2>/dev/null || echo 1)}"
    printf '  "benchmarks": [\n'
    awk '
        /^Benchmark/ {
            line = $0
            name = $1; sub(/-[0-9]+$/, "", name)
            ns = ""; bytes = ""; allocs = ""; extra = ""
            for (i = 2; i <= NF; i++) {
                if ($(i+1) == "ns/op")     ns = $i
                if ($(i+1) == "B/op")      bytes = $i
                if ($(i+1) == "allocs/op") allocs = $i
                if ($(i+1) == "parallel-speedup") extra = extra sprintf(", \"parallel_speedup\": %s", $i)
                if ($(i+1) == "workers")   extra = extra sprintf(", \"workers\": %s", $i)
            }
            if (n++) printf ",\n"
            printf "    {\"name\": \"%s\", \"iterations\": %s", name, $2
            if (ns != "")     printf ", \"ns_per_op\": %s", ns
            if (bytes != "")  printf ", \"bytes_per_op\": %s", bytes
            if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
            printf "%s}", extra
        }
        END { printf "\n" }
    ' "$RAW"
    printf '  ]\n'
    echo '}'
} > "$OUT"
echo "wrote $OUT"
