#!/bin/sh
# Determinism gate: the repo's core property is same seed, same run, bit
# for bit. Each leg below runs grid3sim twice (or once per configuration
# that must be output-invisible) and diffs the results, ignoring only the
# first output line, which carries wall-clock timing.
#
# CI runs this exact script (.github/workflows/ci.yml), so the local gate
# and the hosted one cannot drift. Runs from any directory:
# ./scripts/determinism.sh
#
# Legs:
#   1. default configuration, two identical invocations
#   2. fault-management loop armed (-health -recovery)
#   3. scaled 300-site testbed
#   4. managed data plane (-srm -doors -cleanup -replica-rank)
#   5. checkpoint/restore matches straight-through, corrupt snapshots
#      are refused
#   6. arming the usage ledger (-ingest-batch) leaves the output unchanged
set -eu
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

SIM="$WORK/grid3sim"
go build -o "$SIM" ./cmd/grid3sim

# same A B — diff two run outputs, ignoring line 1 (wall-clock timing).
same() {
    tail -n +2 "$1" > "$1.body"
    tail -n +2 "$2" > "$2.body"
    diff "$1.body" "$2.body"
}

echo '== determinism: default configuration'
"$SIM" -days 20 -scale 0.1 -seed 7 > "$WORK/run-a.txt"
"$SIM" -days 20 -scale 0.1 -seed 7 > "$WORK/run-b.txt"
same "$WORK/run-a.txt" "$WORK/run-b.txt"

echo '== determinism: fault-management loop armed'
"$SIM" -days 20 -scale 0.1 -seed 7 -health -recovery > "$WORK/run-c.txt"
"$SIM" -days 20 -scale 0.1 -seed 7 -health -recovery > "$WORK/run-d.txt"
same "$WORK/run-c.txt" "$WORK/run-d.txt"

echo '== determinism: scaled testbed'
"$SIM" -sites 300 -days 3 -scale 0.1 -seed 7 -quiet > "$WORK/run-e.txt"
"$SIM" -sites 300 -days 3 -scale 0.1 -seed 7 -quiet > "$WORK/run-f.txt"
same "$WORK/run-e.txt" "$WORK/run-f.txt"

echo '== determinism: managed data plane'
"$SIM" -days 10 -scale 0.1 -seed 7 -srm -doors 4 -cleanup -replica-rank > "$WORK/run-g.txt"
"$SIM" -days 10 -scale 0.1 -seed 7 -srm -doors 4 -cleanup -replica-rank > "$WORK/run-h.txt"
same "$WORK/run-g.txt" "$WORK/run-h.txt"

echo '== determinism: checkpoint/restore matches straight-through'
"$SIM" -days 20 -scale 0.1 -seed 7 > "$WORK/run-straight.txt"
# Capturing a snapshot mid-run is a pure read: the checkpointing run's
# own output must already match the straight run.
"$SIM" -days 20 -scale 0.1 -seed 7 -checkpoint-at 240h -checkpoint-out "$WORK/snap.g3" > "$WORK/run-ckpt.txt"
same "$WORK/run-straight.txt" "$WORK/run-ckpt.txt"
# Restoring replays the recorded history and continues to the straight
# run's bytes.
"$SIM" -restore "$WORK/snap.g3" > "$WORK/run-restored.txt"
same "$WORK/run-straight.txt" "$WORK/run-restored.txt"
# A flipped byte anywhere in the snapshot must refuse to load.
dd if=/dev/zero of="$WORK/snap.g3" bs=1 count=1 seek=100 conv=notrunc 2>/dev/null
if "$SIM" -restore "$WORK/snap.g3" > /dev/null 2> "$WORK/corrupt.err"; then
    echo "corrupted snapshot restored" >&2
    exit 1
fi
grep -q "checkpoint" "$WORK/corrupt.err"

echo '== determinism: arming the usage ledger leaves the output unchanged'
# The ledger only reads accounting at window seals: a run with it armed
# must reproduce the run without it byte for byte.
"$SIM" -days 20 -scale 0.1 -seed 7 > "$WORK/run-plain.txt"
"$SIM" -days 20 -scale 0.1 -seed 7 -ingest-batch 256 > "$WORK/run-batched.txt"
same "$WORK/run-plain.txt" "$WORK/run-batched.txt"
"$SIM" -days 20 -scale 0.1 -seed 7 -ingest-batch 32 -ingest-window 30m > "$WORK/run-batched-win.txt"
same "$WORK/run-plain.txt" "$WORK/run-batched-win.txt"

echo 'determinism: OK'
