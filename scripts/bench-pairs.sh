#!/usr/bin/env bash
# Alternating base/change pairs of the benchmark on one workload:
#
#   bash scripts/bench-pairs.sh BASE WORKLOAD N SECONDS
#
# BASE is any git revision. It is checked out, detached, in a git worktree
# under a temporary directory (removed on exit); then bench/run.sh runs N
# times in that tree and N times in the working tree, alternating, base
# first, each for SECONDS seconds with --trace 0 and the seed in SEED
# (default 1). Both trees build their own flbench inside their checkout, as
# run.sh does. Per pair it prints wall_s, alloc_mb and coop_speedup of both
# runs and the relative change of wall_s; at the end, the median wall_s of
# each side and in how many pairs the working tree's was lower. Nothing under
# bench/ is written but run.sh's own outputs, and nothing needs the network.
set -euo pipefail
if [ $# -ne 4 ]; then
	echo "usage: $0 BASE WORKLOAD N SECONDS" >&2
	exit 2
fi
base=$1 workload=$2 n=$3 seconds=$4 seed=${SEED:-1}
root="$(git rev-parse --show-toplevel)"
tmp="$(mktemp -d)"
cleanup() {
	git -C "$root" worktree remove --force "$tmp/base" 2>/dev/null || true
	git -C "$root" worktree prune
	rm -rf "$tmp"
}
trap cleanup EXIT
git -C "$root" worktree add --quiet --detach "$tmp/base" "$base"

# run TREE: one bench/run.sh in TREE; prints "wall_s alloc_mb coop_speedup",
# read at full precision from the run's closing JSON line ("-" for a metric
# the workload does not report).
run() {
	local out json m v
	out="$(cd "$1" && bash bench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0)" || exit 1
	json="$(printf '%s\n' "$out" | tail -n 1)"
	for m in wall_s alloc_mb coop_speedup; do
		v="$(printf '%s' "$json" | sed -n 's/.*"'"$m"'":{"value":\([^,}]*\).*/\1/p')"
		printf '%s ' "${v:--}"
	done
	echo
}

# median: the median of the numbers on stdin.
median() {
	sort -g | awk '{ v[NR] = $1 } END { print (NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2) }'
}

wins=0
bws="" cws=""
printf '%-4s %-19s %-19s %7s %-19s %-19s %-19s %-19s\n' pair base_wall change_wall delta base_alloc chg_alloc base_speedup chg_speedup
for i in $(seq 1 "$n"); do
	r="$(run "$tmp/base")"
	read -r bw ba bc <<<"$r"
	r="$(run "$root")"
	read -r cw ca cc <<<"$r"
	bws="$bws$bw"$'\n' cws="$cws$cw"$'\n'
	delta="$(awk -v b="$bw" -v c="$cw" 'BEGIN { printf "%+.1f%%", 100 * (c - b) / b }')"
	if awk -v b="$bw" -v c="$cw" 'BEGIN { exit !(c < b) }'; then
		wins=$((wins + 1))
	fi
	printf '%-4s %-19s %-19s %7s %-19s %-19s %-19s %-19s\n' "$i" "$bw" "$cw" "$delta" "$ba" "$ca" "$bc" "$cc"
done
bm="$(printf '%s' "$bws" | median)" cm="$(printf '%s' "$cws" | median)"
echo "$workload seed=$seed: median wall_s $bm -> $cm ($(awk -v b="$bm" -v c="$cm" 'BEGIN { printf "%+.1f%%", 100 * (c - b) / b }')); working tree lower in $wins of $n pairs"
