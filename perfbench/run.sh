#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload sim-fleet --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run leave behind lands in .bench_build/.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export PPROF_TMPDIR="$out"

cd perfbench
go build -o "$out/perfbench" .
# The layer replay calls core/replacement/buffer/coherence directly, so it
# is its own binary: a signature change there breaks only the traced pass.
for arg in "$@"; do
	if [[ "$arg" == "1" && "${prev:-}" == "--trace" ]]; then
		go build -o "$out/layers" ./layers
	fi
	prev="$arg"
done
cd ..
exec "$out/perfbench" -out "$out" "$@"
