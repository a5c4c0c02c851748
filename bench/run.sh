#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there. Every file the build and the run touch
# (build cache, temp dirs, work dirs) stays inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath
export GOENV=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/simserve-bench" .)
cd "$root"
exec "$build/simserve-bench" "$@"
