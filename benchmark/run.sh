#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build at the checkout
# root and runs it with the arguments given. Everything the build and
# the run write — the go build cache included — stays inside the
# checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/anydb-benchmark" .)
cd "$root"
exec "$build/anydb-benchmark" -out "$here/out" "$@"
