#!/bin/bash
# Fails when the compiler fuses a floating-point multiply and add into one
# instruction anywhere in the module's non-test packages. Go may fuse x*y + z
# (one rounding instead of two) on arm64, ppc64le, s390x and riscv64, which
# would move the bit-exact references and the virtual times on those hosts;
# an explicit conversion, float32(x*y) + z, forbids it. The check compiles
# every package for each of those targets with -a (a cached package prints
# no assembly and would pass vacuously) and greps the assembly listing.
#
# Usage: scripts/fma-check.sh   (or: make fma-check)
set -euo pipefail

cd "$(dirname "$0")/.."

# Fusions proved exact, as path:line. newGen's sample divides by 2^16, which
# the compiler turns into a multiply by 2^-16: the product is exact, so the
# fused add rounds once either way.
allow='internal/polybench/polybench.go:120'

asm=$(mktemp)
trap 'rm -f "$asm"' EXIT
status=0
for arch in arm64 ppc64le s390x riscv64; do
	if ! GOARCH=$arch go build -a -gcflags='fluidicl/...=-S' ./... >"$asm" 2>&1; then
		grep -v '^[[:space:]]' "$asm" >&2
		echo "fma-check: build for $arch failed" >&2
		exit 1
	fi
	if ! grep -q "($PWD/internal/" "$asm"; then
		echo "fma-check: $arch printed no assembly for the module's packages" >&2
		exit 1
	fi
	hits=$(grep -E '\)[[:space:]]+FN?M(ADD|SUB)[A-Z]*[[:space:]]' "$asm" |
		sed -E "s|.*\\($PWD/([^)]*)\\).*|\\1|" | sort -u | grep -v -x -F "$allow" || true)
	if [ -n "$hits" ]; then
		echo "fma-check: $arch fuses a multiply and an add at:"
		echo "$hits"
		status=1
	fi
done
[ $status -eq 0 ] && echo "fma-check: no fused multiply-add on arm64, ppc64le, s390x, riscv64"
exit $status
