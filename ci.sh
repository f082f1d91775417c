#!/usr/bin/env bash
# Full verification gate: build, test, lint, and smoke-run the KCD bench.
# Run from the repository root. Fails on the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo build --release (perfbench: its own workspace, so the build above skips it)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo test (workspace)"
cargo test -q --workspace

echo "==> fault-injection soak (fixed seed, all fault kinds)"
cargo test --release -q --test fault_soak -- --ignored

echo "==> chaos simulator soak gate (20 fixed seeds + 256-case atomicity sweep)"
cargo test --release -q --test sim_soak -- --ignored
cargo test --release -q -p dbcatcher-serve --test snapshot_atomicity -- --ignored

echo "==> dbclint self-test (seeded violations must fail the gate)"
cargo run -q --release -p dbcatcher-analysis --bin dbclint -- --self-test

echo "==> dbclint --deny -> results/LINT_report.json"
cargo run -q --release -p dbcatcher-analysis --bin dbclint -- --deny \
  --report results/LINT_report.json

echo "==> cargo doc (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> kcd bench smoke (DBCATCHER_BENCH_FAST=1) -> BENCH_kcd.json"
BENCH_RAW="$(mktemp)"
BENCH_ALLOCS="$(mktemp)"
BENCH_BASELINE="$(mktemp)"
# the committed artifact is the regression baseline for this run
cp BENCH_kcd.json "$BENCH_BASELINE"
# no filter: covers kcd_backends plus the kcd_kernels (oracle vs compiled
# kernel) and kcd_batch (per-unit vs shared-arena) groups in one pass
DBCATCHER_BENCH_FAST=1 DBCATCHER_BENCH_JSON="$BENCH_RAW" \
  DBCATCHER_BENCH_ALLOCS="$BENCH_ALLOCS" \
  cargo bench -p dbcatcher-bench --bench kcd
DBCATCHER_BENCH_FAST=1 cargo run -q --release -p dbcatcher-bench --bin bench_report -- \
  "$BENCH_RAW" BENCH_kcd.json --allocs "$BENCH_ALLOCS" --baseline "$BENCH_BASELINE"
rm -f "$BENCH_RAW" "$BENCH_ALLOCS" "$BENCH_BASELINE"
test -s BENCH_kcd.json || { echo "BENCH_kcd.json missing or empty"; exit 1; }

echo "==> serve loopback smoke (ephemeral port, 200 ticks; clean, then with collector faults)"
SMOKE_DIR="$(mktemp -d)"
DBC=target/release/dbcatcher
"$DBC" simulate --kind tencent --units 1 --ticks 200 --seed 11 --out "$SMOKE_DIR/ds.json"
# The faulted pass sends null samples, gap-repaired frames and NaN scores
# across the socket through the wire codec; both passes must match
# offline detect byte for byte.
for FAULTS in "" "--faults standard --fault-seed 7"; do
  echo "    pass: ${FAULTS:-no faults}"
  rm -f "$SMOKE_DIR/port.txt"
  # shellcheck disable=SC2086 # FAULTS is a list of flags
  "$DBC" detect --data "$SMOKE_DIR/ds.json" $FAULTS --out "$SMOKE_DIR/offline.jsonl" \
    2> "$SMOKE_DIR/detect.log"
  "$DBC" serve --listen 127.0.0.1:0 --port-file "$SMOKE_DIR/port.txt" \
    2> "$SMOKE_DIR/serve.log" &
  SERVE_PID=$!
  for _ in $(seq 1 100); do [ -s "$SMOKE_DIR/port.txt" ] && break; sleep 0.1; done
  test -s "$SMOKE_DIR/port.txt" || { echo "serve never bound"; kill "$SERVE_PID"; exit 1; }
  ADDR="$(tr -d '\n' < "$SMOKE_DIR/port.txt")"
  # shellcheck disable=SC2086
  timeout 60 "$DBC" emit --connect "$ADDR" --data "$SMOKE_DIR/ds.json" $FAULTS \
    --out "$SMOKE_DIR/online.jsonl" --stop-server 2> "$SMOKE_DIR/emit.log"
  # clean daemon shutdown within the timeout
  SHUTDOWN_OK=0
  for _ in $(seq 1 100); do
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then SHUTDOWN_OK=1; break; fi
    sleep 0.1
  done
  [ "$SHUTDOWN_OK" = 1 ] || { echo "serve did not shut down"; kill "$SERVE_PID"; exit 1; }
  wait "$SERVE_PID"
  # online verdict stream must match the offline golden stream exactly
  diff "$SMOKE_DIR/offline.jsonl" "$SMOKE_DIR/online.jsonl" \
    || { echo "loopback verdicts diverge from offline detect (${FAULTS:-no faults})"; exit 1; }
  grep -q "abnormal verdict" "$SMOKE_DIR/emit.log" \
    || { echo "emit reported no verdict count"; exit 1; }
done
rm -rf "$SMOKE_DIR"

echo "==> shard-failure recovery smoke (injected panic and wedge, WAL-backed)"
RECOV_DIR="$(mktemp -d)"
"$DBC" simulate --kind tencent --units 1 --ticks 200 --seed 12 --out "$RECOV_DIR/ds.json"
"$DBC" detect --data "$RECOV_DIR/ds.json" --out "$RECOV_DIR/offline.jsonl" \
  2> "$RECOV_DIR/detect.log"
for MODE in PANIC WEDGE; do
  rm -f "$RECOV_DIR/port.txt"
  env "DBCATCHER_CHAOS_SHARD_${MODE}=100" \
    "$DBC" serve --listen 127.0.0.1:0 --port-file "$RECOV_DIR/port.txt" \
    --shards 1 --wal-dir "$RECOV_DIR/wal_$MODE" \
    --snapshot-dir "$RECOV_DIR/snap_$MODE" --snapshot-every 32 \
    2> "$RECOV_DIR/serve_$MODE.log" &
  SERVE_PID=$!
  for _ in $(seq 1 100); do [ -s "$RECOV_DIR/port.txt" ] && break; sleep 0.1; done
  test -s "$RECOV_DIR/port.txt" || { echo "$MODE: serve never bound"; kill "$SERVE_PID"; exit 1; }
  ADDR="$(tr -d '\n' < "$RECOV_DIR/port.txt")"
  # the stream must complete *through* the injected shard failure
  timeout 90 "$DBC" emit --connect "$ADDR" --data "$RECOV_DIR/ds.json" \
    --out "$RECOV_DIR/online_$MODE.jsonl" 2> "$RECOV_DIR/emit_$MODE.log" \
    || { echo "$MODE: emit failed across the shard failure"; kill "$SERVE_PID"; exit 1; }
  "$DBC" stats --connect "$ADDR" > "$RECOV_DIR/stats_$MODE.json"
  grep -q '"restarts":[1-9]' "$RECOV_DIR/stats_$MODE.json" \
    || { echo "$MODE: supervisor recorded no shard restart"; kill "$SERVE_PID"; exit 1; }
  grep -q '"failed":true' "$RECOV_DIR/stats_$MODE.json" \
    && { echo "$MODE: a shard is marked failed"; kill "$SERVE_PID"; exit 1; }
  # idempotent re-offer is a no-op, then a clean stop
  timeout 60 "$DBC" emit --connect "$ADDR" --data "$RECOV_DIR/ds.json" \
    --out /dev/null --stop-server 2>> "$RECOV_DIR/emit_$MODE.log"
  SHUTDOWN_OK=0
  for _ in $(seq 1 100); do
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then SHUTDOWN_OK=1; break; fi
    sleep 0.1
  done
  [ "$SHUTDOWN_OK" = 1 ] || { echo "$MODE: serve did not shut down"; kill "$SERVE_PID"; exit 1; }
  wait "$SERVE_PID"
  # zero verdicts lost or duplicated across the worker replacement
  diff "$RECOV_DIR/offline.jsonl" "$RECOV_DIR/online_$MODE.jsonl" \
    || { echo "$MODE: recovered verdict stream diverges from offline detect"; exit 1; }
done
rm -rf "$RECOV_DIR"

echo "==> fleet-scope hierarchy smoke (3-unit correlated anomaly, online == offline, crash + resume)"
FLEET_DIR="$(mktemp -d)"
"$DBC" simulate --kind tencent --units 3 --ticks 300 --seed 7 \
  --correlated shared-storage --group 3 --out "$FLEET_DIR/ds.json"
"$DBC" serve --listen 127.0.0.1:0 --port-file "$FLEET_DIR/port.txt" --units 3 \
  --hierarchy --units-per-cluster 2 --clusters-per-region 2 \
  --wal-dir "$FLEET_DIR/wal" --snapshot-dir "$FLEET_DIR/snap" --snapshot-every 32 \
  --scope-out "$FLEET_DIR/scope.jsonl" 2> "$FLEET_DIR/serve.log" &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -s "$FLEET_DIR/port.txt" ] && break; sleep 0.1; done
test -s "$FLEET_DIR/port.txt" || { echo "hierarchy: serve never bound"; kill "$SERVE_PID"; exit 1; }
ADDR="$(tr -d '\n' < "$FLEET_DIR/port.txt")"
timeout 60 "$DBC" emit --connect "$ADDR" --data "$FLEET_DIR/ds.json" \
  --out /dev/null --stop-server 2> "$FLEET_DIR/emit.log"
SHUTDOWN_OK=0
for _ in $(seq 1 100); do
  if ! kill -0 "$SERVE_PID" 2>/dev/null; then SHUTDOWN_OK=1; break; fi
  sleep 0.1
done
[ "$SHUTDOWN_OK" = 1 ] || { echo "hierarchy: serve did not shut down"; kill "$SERVE_PID"; exit 1; }
wait "$SERVE_PID"
# the injected correlated failure must raise a scope alarm
grep -q '"state":"Alarm"' "$FLEET_DIR/scope.jsonl" \
  || { echo "hierarchy: correlated anomaly raised no scope alarm"; exit 1; }
# offline replay of the hierarchy journal must be byte-identical
"$DBC" analyze-fleet --verdicts "$FLEET_DIR/wal/hierarchy.wal" --units 3 \
  --units-per-cluster 2 --clusters-per-region 2 \
  --out "$FLEET_DIR/replayed.jsonl" 2> "$FLEET_DIR/analyze.log"
diff "$FLEET_DIR/scope.jsonl" "$FLEET_DIR/replayed.jsonl" \
  || { echo "hierarchy: online scope stream diverges from offline replay"; exit 1; }
# crash mid-stream, resume, re-offer: the rebuilt scope stream must
# still equal an offline replay of the full (crash-spanning) journal
rm -f "$FLEET_DIR/port.txt"
"$DBC" serve --listen 127.0.0.1:0 --port-file "$FLEET_DIR/port.txt" --units 3 \
  --hierarchy --units-per-cluster 2 --clusters-per-region 2 \
  --wal-dir "$FLEET_DIR/wal2" --snapshot-dir "$FLEET_DIR/snap2" --snapshot-every 32 \
  --scope-out "$FLEET_DIR/scope2.jsonl" 2> "$FLEET_DIR/serve2a.log" &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -s "$FLEET_DIR/port.txt" ] && break; sleep 0.1; done
test -s "$FLEET_DIR/port.txt" || { echo "hierarchy: crash-run serve never bound"; kill "$SERVE_PID"; exit 1; }
ADDR="$(tr -d '\n' < "$FLEET_DIR/port.txt")"
timeout 60 "$DBC" emit --connect "$ADDR" --data "$FLEET_DIR/ds.json" \
  --out /dev/null 2> "$FLEET_DIR/emit2a.log" &
EMIT_PID=$!
sleep 1
kill -9 "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
wait "$EMIT_PID" 2>/dev/null || true
rm -f "$FLEET_DIR/port.txt"
"$DBC" serve --listen 127.0.0.1:0 --port-file "$FLEET_DIR/port.txt" --units 3 \
  --hierarchy --units-per-cluster 2 --clusters-per-region 2 \
  --wal-dir "$FLEET_DIR/wal2" --snapshot-dir "$FLEET_DIR/snap2" --snapshot-every 32 \
  --resume "$FLEET_DIR/snap2" \
  --scope-out "$FLEET_DIR/scope2.jsonl" 2> "$FLEET_DIR/serve2b.log" &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -s "$FLEET_DIR/port.txt" ] && break; sleep 0.1; done
test -s "$FLEET_DIR/port.txt" || { echo "hierarchy: resumed serve never bound"; kill "$SERVE_PID"; exit 1; }
ADDR="$(tr -d '\n' < "$FLEET_DIR/port.txt")"
timeout 60 "$DBC" emit --connect "$ADDR" --data "$FLEET_DIR/ds.json" \
  --out /dev/null 2> "$FLEET_DIR/emit2b.log" \
  || { echo "hierarchy: emit to the resumed serve failed"; kill "$SERVE_PID"; exit 1; }
# A snapshot format every boot rejects would still pass the diffs below:
# the unit restarts fresh and the WAL replays its whole history. So no
# unit may report refusing its snapshot.
"$DBC" stats --connect "$ADDR" > "$FLEET_DIR/stats2b.json"
if grep -qE "unreadable snapshot|invalid snapshot" "$FLEET_DIR/stats2b.json"; then
  echo "hierarchy: the resumed serve refused a snapshot:"
  cat "$FLEET_DIR/stats2b.json"
  kill "$SERVE_PID"
  exit 1
fi
# idempotent re-offer is a no-op, then a clean stop
timeout 60 "$DBC" emit --connect "$ADDR" --data "$FLEET_DIR/ds.json" \
  --out /dev/null --stop-server 2>> "$FLEET_DIR/emit2b.log"
SHUTDOWN_OK=0
for _ in $(seq 1 100); do
  if ! kill -0 "$SERVE_PID" 2>/dev/null; then SHUTDOWN_OK=1; break; fi
  sleep 0.1
done
[ "$SHUTDOWN_OK" = 1 ] || { echo "hierarchy: resumed serve did not shut down"; kill "$SERVE_PID"; exit 1; }
wait "$SERVE_PID"
"$DBC" analyze-fleet --verdicts "$FLEET_DIR/wal2/hierarchy.wal" --units 3 \
  --units-per-cluster 2 --clusters-per-region 2 \
  --out "$FLEET_DIR/replayed2.jsonl" 2> "$FLEET_DIR/analyze2.log"
diff "$FLEET_DIR/scope2.jsonl" "$FLEET_DIR/replayed2.jsonl" \
  || { echo "hierarchy: post-resume scope stream diverges from offline replay"; exit 1; }
# and the crash never changes the *final* scope stream either
diff "$FLEET_DIR/scope.jsonl" "$FLEET_DIR/scope2.jsonl" \
  || { echo "hierarchy: crash + resume changed the scope stream"; exit 1; }
rm -rf "$FLEET_DIR"

echo "==> chaos smoke (one random seed + same-seed determinism diff)"
CHAOS_DIR="$(mktemp -d)"
CHAOS_SEED="${CHAOS_SEED:-$RANDOM}"
"$DBC" simulate --chaos --seed "$CHAOS_SEED" \
  --out "$CHAOS_DIR/events_a.jsonl" --verdicts "$CHAOS_DIR/verdicts_a.jsonl" \
  || { echo "chaos run failed; reproduce with: $DBC simulate --chaos --seed $CHAOS_SEED"; exit 1; }
"$DBC" simulate --chaos --seed "$CHAOS_SEED" \
  --out "$CHAOS_DIR/events_b.jsonl" --verdicts "$CHAOS_DIR/verdicts_b.jsonl" \
  || { echo "chaos rerun failed; reproduce with: $DBC simulate --chaos --seed $CHAOS_SEED"; exit 1; }
diff "$CHAOS_DIR/events_a.jsonl" "$CHAOS_DIR/events_b.jsonl" \
  || { echo "chaos event logs diverge for seed $CHAOS_SEED"; exit 1; }
diff "$CHAOS_DIR/verdicts_a.jsonl" "$CHAOS_DIR/verdicts_b.jsonl" \
  || { echo "chaos verdict logs diverge for seed $CHAOS_SEED"; exit 1; }
rm -rf "$CHAOS_DIR"

echo "==> ci.sh: all green"
