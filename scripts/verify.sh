#!/bin/sh
# Full verification gate: build, vet, formatting, the complete test suite,
# and the race detector over the concurrency surfaces (the campaigns'
# shared fan-out, the shared metrics registry, the health monitor, the
# serve ingress boundary, the checkpoint stores' locking, and the usage
# ledger the serve audit routes read).
# The engine and Condor-G packages start no goroutines; they stay in the
# race run so that any concurrency added there is raced from the start.
#
# CI runs this exact script (.github/workflows/ci.yml), so the local gate
# and the hosted one cannot drift. Runs from any directory:
# ./scripts/verify.sh
set -eu
cd "$(dirname "$0")/.."

echo '== go build'
go build ./...

echo '== go vet'
go vet ./...

echo '== gofmt'
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: these files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo '== go test'
go test ./...

echo '== go test -race (concurrency surfaces)'
go test -race ./internal/obs/... ./internal/campaign/... ./internal/health/... \
    ./internal/sim/... ./internal/serve/... ./internal/condorg/... \
    ./internal/checkpoint/... ./internal/ingest/...

echo 'verify: OK'
