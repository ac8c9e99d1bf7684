#!/usr/bin/env bash
# Builds perfbench from source inside the checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload stream --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every file the Go toolchain writes
# (build cache, module cache, temporary build files, telemetry) and every
# file the benchmark writes stays under the build directory:
# $CARGO_TARGET_DIR when set, .bench_build otherwise.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export GOMODCACHE="$build/go-path/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOFLAGS="-mod=mod -buildvcs=false"

(cd perfbench && go build -trimpath -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build/work" "$@"
