#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#	bash perfbench/run.sh --workload ask-hot --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact (Go build cache, binary, snapshots, span
# dumps) stays under $CARGO_TARGET_DIR, default .bench_build, inside the
# checkout.
set -euo pipefail

root=$(pwd)
work=${CARGO_TARGET_DIR:-.bench_build}
case $work in
/*) ;;
*) work=$root/$work ;;
esac
mkdir -p "$work/gocache" "$work/home" "$work/gopath"

# Keep the Go toolchain's caches, configuration and telemetry inside
# the checkout, and never let it reach for a module proxy.
export GOCACHE=$work/gocache GOPATH=$work/gopath GOMODCACHE=$work/gopath/pkg/mod
export HOME=$work/home XDG_CONFIG_HOME=$work/home/.config GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$work/perfbench" .)
exec "$work/perfbench" -work-dir "$work" "$@"
