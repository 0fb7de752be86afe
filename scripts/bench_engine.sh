#!/usr/bin/env bash
# Runs the engine/runner benchmarks with allocation tracking and emits
# BENCH_engine.json so the perf trajectory is machine-readable. Fails hard
# if the engine parity golden (every Result unchanged), the zero-allocation
# steady-state gates (FSYNC, and SSYNC under the stock adversaries), the
# Peek allocation pin, the Scenario.Fingerprint allocation bound, the
# service's admission and replication round-trip allocation bounds, the
# result cache's Put-at-capacity bound, the Runner batch-reuse allocation
# bound, or the leap/slow equivalence property regress.
#
#   scripts/bench_engine.sh [output.json]
#   BENCHTIME=2000x scripts/bench_engine.sh
#
# Compare a fresh run against the committed baseline with
#   scripts/bench_engine.sh BENCH_engine.fresh.json
#   go run ./scripts/benchgate -baseline BENCH_engine.json -fresh BENCH_engine.fresh.json
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_engine.json}"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

# The allocation and equivalence gates are the contract; a regression must
# fail the build before any numbers are published.
go test -count=1 -run 'TestStepZeroAllocSteadyState|TestPeekAllocs|TestLeapSkipsBlockedRounds' ./internal/sim
go test -count=1 -run 'TestEngineParityGolden|TestScenarioStepZeroAllocSteadyState|TestScenarioStepZeroAllocStockAdversaries|TestFingerprintAllocBound|TestRunnerMatchesScenarioRun|TestRunnerBatchedAllocBound|TestLeapSlowEquivalenceProperty' .
go test -count=1 -run 'TestAdmissionAllocBound|TestReplicationRoundTripAllocs' ./internal/service
go test -count=1 -run 'TestCachePutAtCapacityAllocs' ./internal/rescache

go test -run '^$' -bench 'BenchmarkEngine_|BenchmarkRunner_|BenchmarkSweep|BenchmarkLeap_' \
  -benchmem -benchtime "${BENCHTIME:-1000x}" . | tee "$TMP"

# Parse `BenchmarkName-8  N  T ns/op  M unit  ...` lines into JSON.
awk '
BEGIN { print "{"; print "  \"suite\": \"engine\","; print "  \"benchmarks\": [" ; n = 0 }
/^Benchmark/ {
  name = $1; sub(/-[0-9]+$/, "", name)
  if (n++) printf ",\n"
  printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, $2, $3
  for (i = 5; i < NF; i += 2) printf ", \"%s\": %s", $(i + 1), $i
  printf "}"
}
END { print "\n  ]"; print "}" }
' "$TMP" >"$OUT"

echo "wrote $OUT"
