#!/usr/bin/env bash
# Builds k2d, k2fleet and perfbench from the checkout this is run from, then
# runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload long-episodes --seed 1 --seconds 36 --trace 0
#
# Every build artefact, Go cache and scratch file stays under .bench_build in
# the current directory, which must be the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOENV=off
export GOFLAGS= GOTOOLCHAIN=local CGO_ENABLED=0

go build -o "$out/bin/k2d" ./cmd/k2d >&2
go build -o "$out/bin/k2fleet" ./cmd/k2fleet >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -bin "$out/bin" -out "$out" -golden "$root/cmd/k2bench/testdata/default.golden" "$@"
