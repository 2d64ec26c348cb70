#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it; every argument passes through (see README.md):
#
#   bash perfbench/run.sh --workload fig17-cold --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under the build
# directory ($CARGO_TARGET_DIR, default .bench_build): the Go build
# cache, the binary, scratch result stores and span files.
set -euo pipefail

build_dir="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build_dir/tmp"
build_dir="$(cd "$build_dir" && pwd)"

export GOCACHE="$build_dir/gocache" GOTMPDIR="$build_dir/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

(cd perfbench && go build -o "$build_dir/perfbench" .)
exec "$build_dir/perfbench" --workdir "$build_dir" "$@"
