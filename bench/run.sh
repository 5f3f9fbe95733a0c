#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (build cache, temporary files, Go's config and telemetry counters, the
# binary, traces) lands in .bench_build/ under the current directory; the
# toolchain never reaches for the network.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0

go build -C bench -o "$out/grid3bench" .
exec "$out/grid3bench" "$@"
