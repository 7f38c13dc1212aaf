#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the checkout.
# Everything the build and the run write stays inside the checkout: the Go
# build cache and the binary under .bench_build/, span files and journals
# under benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build" "$here/out"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bluedove-benchmark" .)
cd "$root"
exec "$build/bluedove-benchmark" -out "$here/out" "$@"
