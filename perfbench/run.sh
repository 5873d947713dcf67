#!/usr/bin/env bash
# Builds the benchmark from the sources in the current directory, which
# must be a crackdb checkout, and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload converged-read --seed 1 --seconds 20 --trace 0
#
# Every build product, data directory and span dump stays under
# .bench_build in the checkout.
set -euo pipefail
if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a crackdb checkout (go.mod not found)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's own config and telemetry files
# in the checkout as well.
(cd perfbench && GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
	GOFLAGS=-mod=readonly go build -o "$out/perfbench" .)
exec "$out/perfbench" -dir "$out/perfbench-run" "$@"
