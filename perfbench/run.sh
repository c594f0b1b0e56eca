#!/usr/bin/env bash
# Builds the benchmark and the irrd/irrgw binaries from source, then runs
# the benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload compile-corpus --seed 1 --seconds 10 --trace 0
#
# Every build product and the Go build cache stay under .bench_build/ in
# the repository root.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOENV=off

(cd "$root/perfbench" && go build -o "$build/bin/" . repro/cmd/irrd repro/cmd/irrgw)
exec "$build/bin/perfbench" --root "$root" --bin "$build/bin" --out "$build" "$@"
