#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in
# and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload updr-ooc --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Every file the build and the run write
# (Go build cache, temporary files, spool and store directories) stays under
# .bench_build/ in that directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/go-cache" "$build/go-path" "$build/tmp" "$build/config"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOMODCACHE="$build/go-path/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C perfbench build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
