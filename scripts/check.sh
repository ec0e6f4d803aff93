#!/bin/sh
# Full CI gate: the fast checks (`make check`: formatting, line ceilings,
# build, vet, tests, kernel lint and its JSON reporter, bench smoke) plus the
# race-detector suite (`make race`). The Makefile is the one definition of
# the gate; this script only runs it, so the two cannot drift.
set -eu

cd "$(dirname "$0")/.."

if ! command -v make >/dev/null 2>&1; then
    echo "check.sh: make is required: the gate is defined in the Makefile (make check race)" >&2
    exit 1
fi
exec make check race
