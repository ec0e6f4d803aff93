#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json "command"): build flbench from
# source inside the checkout, then run it.
#
#   bash bench/run.sh --workload W --seed S --seconds N --trace 0|1
#
# Everything the build writes (binary, Go build cache, temporaries) goes under
# .bench_build/ at the root of the checkout; run records and trace files go to
# bench/out/. Both are in .gitignore.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomod"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off # no network, no workspace, the installed toolchain
# The module in bench/ reaches the program through `replace fluidicl => ../`,
# so the build fails (and this script with it) where the program is missing.
(cd "$here" && go build -o "$build/flbench" ./cmd/flbench)
cd "$root"
exec "$build/flbench" run "$@"
