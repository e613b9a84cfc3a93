#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload treiber-t3|msqueue-t3|suite-opt --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything the build and the run
# write stays under .bench_build/ there: the Go build cache, temporary
# files, the binary, the run's verdict stores and the trace files.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root: go.mod and perfbench/go.mod must both exist" >&2
	exit 2
fi

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/home"
(
	cd perfbench
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
		HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
		GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off \
		go build -o "$out/perfbench-bin" .
)
TMPDIR="$out/tmp" exec "$out/perfbench-bin" "$@"
