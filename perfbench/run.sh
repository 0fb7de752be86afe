#!/usr/bin/env bash
# Builds the sweep-service benchmark from the checkout's source and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload solo-hot --seed 1 --seconds 22 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, durable tiers, span files) stays under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/perfbench"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export CGO_ENABLED=0

go -C "$root/perfbench" build -o "$out/perfbench/perfbench" . >&2
exec "$out/perfbench/perfbench" --workdir "$out/perfbench" "$@"
