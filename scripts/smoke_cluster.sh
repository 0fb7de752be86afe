#!/usr/bin/env bash
# End-to-end smoke test for the sharded ringsimd cluster, as run by CI:
# build, boot three peers (each with a durable -data tier), POST the same
# grid to two different nodes concurrently, and assert (a) each scenario
# executed exactly once cluster-wide (the summed per-node execution
# counters equal the grid size), (b) both NDJSON result streams are
# byte-identical, (c) a sweep still completes when a non-coordinator peer
# is killed mid-flight, (d) a restarted peer with the same -data
# directory serves a re-POST of the original grid with zero new executions
# anywhere (disk warm start), (e) the dynring_service_executions_total
# counters scraped from /metrics on all three peers sum to the grid size,
# and (f) a proxied sweep's trace names spans from at least two distinct
# nodes under one trace ID. Needs only bash, curl and the go toolchain.
#
# "smoke_cluster.sh chaos" instead runs the seeded chaos mode against a
# -replicas 3 cluster: CHAOS_ITERS iterations of SIGKILL-a-random-victim
# mid-sweep / assert zero errored rows / restart / reconverge, driven by
# bash's RNG seeded from CHAOS_SEED so a failure reproduces exactly (the
# seed is printed up front and again on failure). After the loop it waits
# for anti-entropy to union every replica's -data tier, asserts a re-POST
# of the first grid adds zero executions cluster-wide, and checks the
# dynring_cluster_{replica_hits,antientropy_repairs}_total families
# are exposed on every node's /metrics.
set -euo pipefail
cd "$(dirname "$0")/.."

HOST="${RINGSIMD_HOST:-127.0.0.1}"
P1="${RINGSIMD_P1:-18181}"
P2="${RINGSIMD_P2:-18182}"
P3="${RINGSIMD_P3:-18183}"
N1="http://$HOST:$P1"
N2="http://$HOST:$P2"
N3="http://$HOST:$P3"
PEERS="$N1,$N2,$N3"
WORKDIR="$(mktemp -d)"
PIDS=()
trap 'kill "${PIDS[@]}" 2>/dev/null || true; rm -rf "$WORKDIR"' EXIT

# json_field FILE FIELD: extract a scalar JSON field without jq.
json_field() {
  sed -nE 's/.*"'"$2"'":[[:space:]]*"?([^",}]*)"?.*/\1/p' "$1" | head -n1
}

# boot NAME PORT: start one peer with its own data dir; appends to PIDS.
boot() {
  local name="$1" port="$2"
  mkdir -p "$WORKDIR/data-$name"
  "$WORKDIR/ringsimd" -addr "$HOST:$port" -self "http://$HOST:$port" \
    -peers "$PEERS" -data "$WORKDIR/data-$name" -workers 2 -cache 1024 \
    >>"$WORKDIR/$name.log" 2>&1 &
  PIDS+=($!)
}

# wait_alive BASE N: poll BASE/v1/cluster until N members report alive.
wait_alive() {
  local base="$1" want="$2" got=0
  for _ in $(seq 200); do
    if curl -fsS "$base/v1/cluster" >"$WORKDIR/cluster.json" 2>/dev/null; then
      got="$(grep -o '"state":"alive"' "$WORKDIR/cluster.json" | wc -l)"
      [ "$got" -ge "$want" ] && return 0
    fi
    sleep 0.1
  done
  echo "cluster at $base never converged ($got/$want alive)" >&2
  cat "$WORKDIR/cluster.json" >&2 || true
  return 1
}

# submit BASE SPEC OUT: POST a grid, print the job id.
submit() {
  curl -fsS -X POST "$1/v1/sweeps" -H 'Content-Type: application/json' \
    -d "$2" >"$3"
  json_field "$3" id
}

# wait_done BASE ID: poll until the job settles; fail unless it is done.
wait_done() {
  local state=running
  for _ in $(seq 600); do
    curl -fsS "$1/v1/sweeps/$2" >"$WORKDIR/status.json"
    state="$(json_field "$WORKDIR/status.json" state)"
    [ "$state" != running ] && break
    sleep 0.1
  done
  [ "$state" = done ] || { echo "job $2 on $1 ended in state '$state'" >&2; exit 1; }
}

# executions BASE: this node's lifetime execution counter from /statsz.
executions() {
  curl -fsS "$1/statsz" >"$WORKDIR/stats.json"
  json_field "$WORKDIR/stats.json" executions
}

echo "== build"
go build -o "$WORKDIR/ringsimd" ./cmd/ringsimd

if [ "${1:-}" = "chaos" ]; then
  CHAOS_SEED="${CHAOS_SEED:-20160808}"
  CHAOS_ITERS="${CHAOS_ITERS:-5}"
  RANDOM=$CHAOS_SEED
  die() { echo "$*" >&2; echo "chaos smoke FAILED — reproduce with CHAOS_SEED=$CHAOS_SEED $0 chaos" >&2; exit 1; }
  trap 'echo "chaos smoke aborted — reproduce with CHAOS_SEED=$CHAOS_SEED $0 chaos" >&2' ERR

  NAMES=(n1 n2 n3); PORTS=("$P1" "$P2" "$P3"); BASES=("$N1" "$N2" "$N3")
  CUR_PID=(0 0 0)

  # chaos_boot IDX: (re)start node IDX with its persistent data dir and
  # 3-way replication; fast probes and a tight anti-entropy interval so
  # recovery converges within the test budget.
  chaos_boot() {
    local idx="$1"
    mkdir -p "$WORKDIR/data-${NAMES[$idx]}"
    "$WORKDIR/ringsimd" -addr "$HOST:${PORTS[$idx]}" -self "http://$HOST:${PORTS[$idx]}" \
      -peers "$PEERS" -data "$WORKDIR/data-${NAMES[$idx]}" -workers 2 -cache 1024 \
      -replicas 3 -probe-interval 250ms -antientropy-interval 500ms \
      >>"$WORKDIR/${NAMES[$idx]}.log" 2>&1 &
    CUR_PID[$idx]=$!
    PIDS+=($!)
  }

  # disk_entries BASE: the node's durable-tier entry gauge from /metrics.
  disk_entries() {
    curl -fsS "$1/metrics" | awk '/^dynring_cache_entries{.*disk/ {v=$2} END {print v + 0}'
  }

  echo "== chaos mode: seed=$CHAOS_SEED iterations=$CHAOS_ITERS replicas=3"
  chaos_boot 0; chaos_boot 1; chaos_boot 2
  for base in "${BASES[@]}"; do wait_alive "$base" 3; done

  GRID_SIZE=12
  FIRST_SPEC=""
  for it in $(seq "$CHAOS_ITERS"); do
    c=$((RANDOM % 3))
    v=$(( (c + 1 + RANDOM % 2) % 3 ))
    s=$((it * 100))
    SPECI='{"base":{"size":8,"landmark":0,"algorithm":"LandmarkWithChirality","adversary":{"kind":"random","p":0.5}},"algorithms":["KnownNNoChirality","LandmarkWithChirality"],"sizes":[6,8],"seeds":['"$s,$((s + 1)),$((s + 2))"']}'
    [ -n "$FIRST_SPEC" ] || FIRST_SPEC="$SPECI"
    echo "== iteration $it: submit to ${NAMES[$c]}, SIGKILL ${NAMES[$v]} mid-sweep"
    IDI="$(submit "${BASES[$c]}" "$SPECI" "$WORKDIR/chaos-job.json")"
    kill -KILL "${CUR_PID[$v]}" 2>/dev/null || true
    wait_done "${BASES[$c]}" "$IDI"
    curl -fsS "${BASES[$c]}/v1/sweeps/$IDI/results" >"$WORKDIR/chaos-run.ndjson"
    if grep -q '"error"' "$WORKDIR/chaos-run.ndjson"; then
      grep '"error"' "$WORKDIR/chaos-run.ndjson" >&2
      die "iteration $it: sweep under SIGKILL carries errored rows"
    fi
    ROWS="$(wc -l <"$WORKDIR/chaos-run.ndjson")"
    [ "$ROWS" = "$GRID_SIZE" ] || die "iteration $it: stream has $ROWS rows, want $GRID_SIZE"
    chaos_boot "$v"
    for base in "${BASES[@]}"; do wait_alive "$base" 3; done
  done

  echo "== anti-entropy: every replica's -data tier converges to the union"
  WANT=$((GRID_SIZE * CHAOS_ITERS))
  for base in "${BASES[@]}"; do
    got=0
    for _ in $(seq 300); do
      got="$(disk_entries "$base")"
      [ "${got:-0}" -ge "$WANT" ] && break
      sleep 0.1
    done
    [ "${got:-0}" -ge "$WANT" ] || die "$base durable tier stuck at ${got:-0}/$WANT entries"
  done

  echo "== re-POST of iteration 1's grid executes nothing anywhere"
  B1="$(executions "$N1")"; B2="$(executions "$N2")"; B3="$(executions "$N3")"
  IDF="$(submit "$N1" "$FIRST_SPEC" "$WORKDIR/chaos-final.json")"
  wait_done "$N1" "$IDF"
  A1="$(executions "$N1")"; A2="$(executions "$N2")"; A3="$(executions "$N3")"
  NEW=$(((A1 - B1) + (A2 - B2) + (A3 - B3)))
  [ "$NEW" = 0 ] || die "re-POST after chaos re-executed $NEW scenarios (replicated tiers should serve all of them)"

  echo "== replication metric families exposed on every node"
  for base in "${BASES[@]}"; do
    curl -fsS "$base/metrics" >"$WORKDIR/chaos-metrics.txt"
    for fam in dynring_cluster_replica_hits_total dynring_cluster_antientropy_repairs_total; do
      grep -q "^# TYPE $fam counter$" "$WORKDIR/chaos-metrics.txt" \
        || die "$base/metrics missing the $fam family"
    done
  done

  echo "chaos smoke OK: seed=$CHAOS_SEED, $CHAOS_ITERS SIGKILL/restart iterations with zero errored rows, replica tiers converged, re-POST ran nothing"
  exit 0
fi

echo "== boot 3 peers"
boot n1 "$P1"; boot n2 "$P2"; boot n3 "$P3"
for base in "$N1" "$N2" "$N3"; do wait_alive "$base" 3; done

SPEC='{"base":{"size":8,"landmark":0,"algorithm":"LandmarkWithChirality","adversary":{"kind":"random","p":0.5}},"algorithms":["KnownNNoChirality","LandmarkWithChirality"],"sizes":[6,8],"seeds":[1,2,3]}'
TOTAL=12

echo "== same grid POSTed to two different nodes, concurrently"
submit "$N1" "$SPEC" "$WORKDIR/job1.json" >"$WORKDIR/id1" &
SUB1=$!
submit "$N2" "$SPEC" "$WORKDIR/job2.json" >"$WORKDIR/id2" &
SUB2=$!
wait "$SUB1" "$SUB2"
ID1="$(cat "$WORKDIR/id1")"; ID2="$(cat "$WORKDIR/id2")"
wait_done "$N1" "$ID1"
wait_done "$N2" "$ID2"
curl -fsS "$N1/v1/sweeps/$ID1/results" >"$WORKDIR/run1.ndjson"
curl -fsS "$N2/v1/sweeps/$ID2/results" >"$WORKDIR/run2.ndjson"

echo "== exactly-once cluster-wide"
E1="$(executions "$N1")"; E2="$(executions "$N2")"; E3="$(executions "$N3")"
SUM=$((E1 + E2 + E3))
echo "executions: n1=$E1 n2=$E2 n3=$E3 sum=$SUM (grid=$TOTAL, twice)"
[ "$SUM" = "$TOTAL" ] || {
  echo "cluster executed $SUM scenarios for a $TOTAL-scenario grid submitted twice" >&2
  exit 1
}

echo "== /metrics on all 3 peers: executions_total sums to the grid size"
MSUM=0
for base in "$N1" "$N2" "$N3"; do
  curl -fsS "$base/metrics" >"$WORKDIR/metrics.txt"
  grep -q '^# TYPE dynring_service_executions_total counter$' "$WORKDIR/metrics.txt" || {
    echo "$base/metrics missing the executions_total TYPE line" >&2
    head -n 20 "$WORKDIR/metrics.txt" >&2
    exit 1
  }
  V="$(awk '$1 == "dynring_service_executions_total" {print $2}' "$WORKDIR/metrics.txt")"
  [ -n "$V" ] || { echo "$base/metrics has no executions_total sample" >&2; exit 1; }
  MSUM=$((MSUM + V))
done
echo "scraped executions_total sum=$MSUM (grid=$TOTAL)"
[ "$MSUM" = "$TOTAL" ] || {
  echo "/metrics counters sum to $MSUM for a $TOTAL-scenario grid" >&2
  exit 1
}

echo "== proxied sweep's trace spans >= 2 distinct nodes under one trace ID"
curl -fsS "$N1/v1/sweeps/$ID1/trace" >"$WORKDIR/trace.json"
TRACE_ID="$(json_field "$WORKDIR/trace.json" trace_id)"
[ -n "$TRACE_ID" ] || { echo "trace has no trace_id" >&2; cat "$WORKDIR/trace.json" >&2; exit 1; }
NODE_COUNT="$(grep -o '"node":"[^"]*"' "$WORKDIR/trace.json" | sort -u | wc -l)"
echo "trace $TRACE_ID names $NODE_COUNT distinct node(s)"
[ "$NODE_COUNT" -ge 2 ] || {
  echo "trace for proxied sweep $ID1 names fewer than 2 nodes:" >&2
  cat "$WORKDIR/trace.json" >&2
  exit 1
}

echo "== streams byte-identical across nodes"
cmp "$WORKDIR/run1.ndjson" "$WORKDIR/run2.ndjson" || {
  echo "result streams differ between coordinators" >&2; exit 1
}

echo "== kill non-coordinator peer mid-sweep; sweep must still complete"
SPEC2='{"base":{"size":8,"landmark":0,"algorithm":"LandmarkWithChirality","adversary":{"kind":"random","p":0.5}},"algorithms":["KnownNNoChirality","LandmarkWithChirality"],"sizes":[6,8],"seeds":[7,8,9]}'
ID3="$(submit "$N1" "$SPEC2" "$WORKDIR/job3.json")"
kill -KILL "${PIDS[2]}" 2>/dev/null || true
wait_done "$N1" "$ID3"
curl -fsS "$N1/v1/sweeps/$ID3/results" >"$WORKDIR/run3.ndjson"
if grep -q '"error"' "$WORKDIR/run3.ndjson"; then
  echo "sweep after peer death carries errored rows:" >&2
  grep '"error"' "$WORKDIR/run3.ndjson" >&2
  exit 1
fi

echo "== restart killed peer with same -data; original grid re-POST runs nothing"
boot n3 "$P3"
wait_alive "$N3" 3
wait_alive "$N1" 3
B1="$(executions "$N1")"; B2="$(executions "$N2")"; B3="$(executions "$N3")"
ID4="$(submit "$N3" "$SPEC" "$WORKDIR/job4.json")"
wait_done "$N3" "$ID4"
curl -fsS "$N3/v1/sweeps/$ID4/results" >"$WORKDIR/run4.ndjson"
A1="$(executions "$N1")"; A2="$(executions "$N2")"; A3="$(executions "$N3")"
NEW=$(((A1 - B1) + (A2 - B2) + (A3 - B3)))
echo "executions after restart re-POST: +$NEW (want 0; disk warm start)"
[ "$NEW" = 0 ] || { echo "warm-started cluster re-executed $NEW scenarios" >&2; exit 1; }
cmp "$WORKDIR/run1.ndjson" "$WORKDIR/run4.ndjson" || {
  echo "restart-served stream differs from the original run" >&2; exit 1
}

echo "== graceful shutdown"
kill -TERM "${PIDS[0]}" "${PIDS[1]}" "${PIDS[3]}" 2>/dev/null || true
for pid in "${PIDS[0]}" "${PIDS[1]}" "${PIDS[3]}"; do wait "$pid" 2>/dev/null || true; done
grep -q "shut down" "$WORKDIR/n1.log" || { cat "$WORKDIR/n1.log" >&2; exit 1; }

echo "cluster smoke OK: exactly-once across nodes (statsz and /metrics agree), multi-node trace, identical streams, survives peer death, warm restart runs nothing"
