#!/usr/bin/env bash
# Builds qbench, its traced twin and the two programs under test into
# benchmark/out/bin, then runs qbench with the given arguments:
#
#   bash benchmark/run.sh --workload decide_hot --seed 42 --seconds 15 --trace 0
#   bash benchmark/run.sh -seed 42            # all six workloads, then the traced pass
#   bash benchmark/run.sh -seed 42 -sets 2    # twice, with the agreement table
#
# Everything the build writes stays under benchmark/out (the Go build cache
# included), so a run touches nothing outside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$here/out"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOENV=off

(cd "$root" && go build -o "$out/bin/" ./cmd/repro ./cmd/qcoordd)
(cd "$here" && go build -o "$out/bin/qbench" .)
# The traced binary reaches into every layer, so it is the one a refactor can
# break. The end-to-end metrics must still print then: its build may fail.
if ! (cd "$here" && go build -o "$out/bin/qtrace" ./trace); then
	rm -f "$out/bin/qtrace"
	echo "run.sh: benchmark/trace does not build: per-layer metrics unavailable" >&2
fi
exec "$out/bin/qbench" -root "$root" "$@"
