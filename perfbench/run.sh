#!/usr/bin/env bash
# Builds the perfbench binary from the sources of the checkout it is run
# from, then runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot_hits --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and trace files stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod needed)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod

(cd perfbench && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
