#!/usr/bin/env bash
# Which program code the shipped traffic never reaches:
#
#   bash scripts/traffic-cover.sh [SECONDS]
#
# Builds flbench (the benchmark program, bench/cmd/flbench) and fluidibench
# with coverage over every fluidicl package into a temporary directory, then
# runs under one GOCOVERDIR:
#   - every benchmark workload (`flbench run --workload all`) for SECONDS
#     seconds each (default 3), its run records written to the temporary
#     directory;
#   - fluidibench's full-scale `all`, with its -jsonout record;
#   - `-quick -topology T hash` for T in 2cpu+2gpu, 4gpu-bus and
#     bigcpu+gt440+gpu.
# It merges the counters and prints, for non-test code under internal/, the
# functions that never ran, then every block that never ran as
# FILE:LINE-LINE. A mechanism whose code is all on that list is one no
# workload pays for. Nothing is written under the checkout, and nothing
# needs the network. A run takes a few minutes: full `all` is the longest.
set -euo pipefail
seconds=${1:-3}
root="$(git rev-parse --show-toplevel)"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off # as bench/run.sh

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/cov" "$tmp/out"
(cd "$root/bench" && go build -cover -coverpkg=fluidicl/... -o "$tmp/flbench" ./cmd/flbench)
(cd "$root" && go build -cover -coverpkg=fluidicl/... -o "$tmp/fluidibench" ./cmd/fluidibench)
export GOCOVERDIR="$tmp/cov"

echo "every workload, ${seconds} s each" >&2
(cd "$root" && "$tmp/flbench" run --workload all --seed 1 --seconds "$seconds" --trace 0 --out "$tmp/out" >/dev/null)
echo "fluidibench all" >&2
"$tmp/fluidibench" -jsonout "$tmp/out/all.json" all >/dev/null
for t in 2cpu+2gpu 4gpu-bus bigcpu+gt440+gpu; do
	echo "fluidibench -quick -topology $t hash" >&2
	"$tmp/fluidibench" -quick -topology "$t" hash >/dev/null
done

# fluidicl/bench's blocks come from the nested module, which go tool cover
# cannot resolve from the root one, so they are dropped before it reads the
# profile.
go tool covdata textfmt -i="$tmp/cov" -o "$tmp/all.out"
awk 'NR == 1 || $0 !~ /^fluidicl\/bench\//' "$tmp/all.out" >"$tmp/prog.out"

echo "== functions under internal/ that never ran"
(cd "$root" && go tool cover -func="$tmp/prog.out") |
	awk '$1 ~ /^fluidicl\/internal\// && $1 !~ /_test\.go:/ && $NF == "0.0%" { sub(/^fluidicl\//, "", $1); print $1, $2 }'

echo "== blocks under internal/ that never ran"
awk 'NR > 1 && $1 ~ /^fluidicl\/internal\// && $NF == 0 {
	split($1, a, ":"); split(a[2], r, ","); split(r[1], s, "."); split(r[2], e, ".")
	f = a[1]; sub(/^fluidicl\//, "", f)
	print f ":" s[1] "-" e[1]
}' "$tmp/prog.out" | sort -t: -k1,1 -k2,2n -u
