#!/usr/bin/env bash
# Alternating base/change pairs of the benchmark on one workload:
#
#   bash scripts/bench-pairs.sh BASE WORKLOAD N SECONDS
#
# BASE is any git revision. Its files are exported (git archive) into a
# temporary directory (removed on exit); then bench/run.sh runs N times in
# that tree and N times in the working tree, each for SECONDS seconds with
# --trace 0 and the seed in SEED (default 1). The order alternates: BASE
# runs first in odd pairs and the working tree first in even ones, so a
# position effect (a warmer cache, a busier machine later in a pair) falls
# on both sides alike. Both trees build their own flbench inside their
# checkout, as run.sh does. The metrics are the end-to-end ones
# BENCHMARK.json lists (its "end_to_end" names, read, never written), in its
# order. Per pair it prints each metric of both runs and its relative
# change; at the end, per metric, each side's median with its first and
# third quartiles, and in how many pairs the working tree's was better in
# the direction BENCHMARK.json gives. Nothing under bench/ is written but
# run.sh's own outputs, and nothing needs the network.
#
# With LAYOUT=1 each pair also runs a layout control between the two: BASE
# again, in a second export whose internal/sched holds one padding
# function that nothing on the workload's path calls. A function nothing
# references would be dropped by the linker and move nothing, so an init
# keeps it behind a flag that is never set; the functions the linker places
# after internal/sched then move by 96 bytes (32 mod 64; vm and core stay
# where they were). Each pair prints the control beside the others, and the
# end prints, per metric, the control's median against BASE's and in how
# many pairs it was better: a difference between BASE and the working tree
# no larger than that is not attributable to code.
set -euo pipefail
if [ $# -ne 4 ]; then
	echo "usage: $0 BASE WORKLOAD N SECONDS" >&2
	exit 2
fi
base=$1 workload=$2 n=$3 seconds=$4 seed=${SEED:-1} layout=${LAYOUT:-0}
root="$(git rev-parse --show-toplevel)"

# The end-to-end metrics: one "name better" line per entry of the
# "end_to_end" list, one entry per line as BENCHMARK.json writes them.
names=() better=()
while read -r m b; do
	names+=("$m") better+=("$b")
done < <(awk '/"end_to_end"/ { on = 1; next }
	on && /\]/ { exit }
	on && /"name"/ {
		m = $0; sub(/.*"name": *"/, "", m); sub(/".*/, "", m)
		b = $0; sub(/.*"better": *"/, "", b); sub(/".*/, "", b)
		print m, b
	}' "$root/BENCHMARK.json")
if [ ${#names[@]} -eq 0 ]; then
	echo "$0: no end_to_end metrics in $root/BENCHMARK.json" >&2
	exit 1
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
# export DIR: BASE's committed files in DIR.
export_base() {
	mkdir -p "$1"
	git -C "$root" archive "$base" | tar -x -C "$1"
}
export_base "$tmp/base"
if [ "$layout" = 1 ]; then
	export_base "$tmp/control"
	cat >"$tmp/control/internal/sched/zz_layout_pad.go" <<'PAD'
package sched

// layoutPadOn is never set: init keeps layoutPad in the binary, and nothing
// calls it. It exists only to move the code the linker places after it.
var layoutPadOn bool

//go:noinline
func layoutPad(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i ^ n
	}
	return s
}

func init() {
	if layoutPadOn {
		layoutPad(1)
	}
}
PAD
fi

# run TREE: one bench/run.sh in TREE; prints each metric of names, read at
# full precision from the run's closing JSON line ("-" for a metric the
# workload does not report).
run() {
	local out json m v
	out="$(cd "$1" && bash bench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0)" || exit 1
	json="$(printf '%s\n' "$out" | tail -n 1)"
	for m in "${names[@]}"; do
		v="$(printf '%s' "$json" | sed -n 's/.*"'"$m"'":{"value":\([^,}]*\).*/\1/p')"
		printf '%s ' "${v:--}"
	done
	echo
}

# quantile P: the P-quantile (0 <= P <= 1) of the numbers on stdin,
# interpolated linearly between order statistics ("-" when there are none).
quantile() {
	sort -g | awk -v p="$1" 'NF && $1 != "-" { v[++k] = $1 }
	END {
		if (!k) { print "-"; exit }
		h = 1 + (k - 1) * p; i = int(h)
		print (i >= k ? v[k] : v[i] + (h - i) * (v[i + 1] - v[i]))
	}'
}

# quartiles: "MEDIAN [Q1 Q3]" of the numbers on stdin.
quartiles() {
	local in
	in="$(cat)"
	printf '%s [%s %s]' "$(quantile 0.5 <<<"$in")" "$(quantile 0.25 <<<"$in")" "$(quantile 0.75 <<<"$in")"
}

# delta B C: the relative change from B to C, or "-".
delta() {
	awk -v b="$1" -v c="$2" 'BEGIN { if (b == "-" || c == "-" || b == 0) print "-"; else printf "%+.1f%%", 100 * (c - b) / b }'
}

# won B C DIR: whether C is better than B in direction DIR.
won() {
	awk -v b="$1" -v c="$2" -v d="$3" 'BEGIN { exit !(b != "-" && c != "-" && (d == "higher" ? c > b : c < b)) }'
}

declare -A bv cv lv wins lwins
for m in "${names[@]}"; do
	bv[$m]="" cv[$m]="" lv[$m]="" wins[$m]=0 lwins[$m]=0
done
for i in $(seq 1 "$n"); do
	# Odd pairs run BASE first, even pairs the working tree; the control,
	# if any, always runs between the two.
	if [ $((i % 2)) = 1 ]; then
		read -r -a b <<<"$(run "$tmp/base")"
	else
		read -r -a c <<<"$(run "$root")"
	fi
	if [ "$layout" = 1 ]; then
		read -r -a l <<<"$(run "$tmp/control")"
	fi
	if [ $((i % 2)) = 1 ]; then
		read -r -a c <<<"$(run "$root")"
	else
		read -r -a b <<<"$(run "$tmp/base")"
	fi
	first=base
	[ $((i % 2)) = 0 ] && first=change
	echo "pair $i ($first first)"
	printf '  %-14s %-20s %-20s %7s' metric base change delta
	[ "$layout" = 1 ] && printf ' %-20s %7s' control delta
	echo
	for j in "${!names[@]}"; do
		m=${names[$j]}
		bv[$m]+="${b[$j]}"$'\n' cv[$m]+="${c[$j]}"$'\n'
		if won "${b[$j]}" "${c[$j]}" "${better[$j]}"; then
			wins[$m]=$((wins[$m] + 1))
		fi
		printf '  %-14s %-20s %-20s %7s' "$m" "${b[$j]}" "${c[$j]}" "$(delta "${b[$j]}" "${c[$j]}")"
		if [ "$layout" = 1 ]; then
			lv[$m]+="${l[$j]}"$'\n'
			if won "${b[$j]}" "${l[$j]}" "${better[$j]}"; then
				lwins[$m]=$((lwins[$m] + 1))
			fi
			printf ' %-20s %7s' "${l[$j]}" "$(delta "${b[$j]}" "${l[$j]}")"
		fi
		echo
	done
done
for j in "${!names[@]}"; do
	m=${names[$j]}
	bm="$(printf '%s' "${bv[$m]}" | quantile 0.5)" cm="$(printf '%s' "${cv[$m]}" | quantile 0.5)"
	bq="$(printf '%s' "${bv[$m]}" | quartiles)" cq="$(printf '%s' "${cv[$m]}" | quartiles)"
	echo "$workload seed=$seed: median [Q1 Q3] $m $bq -> $cq ($(delta "$bm" "$cm")); working tree ${better[$j]} in ${wins[$m]} of $n pairs"
	if [ "$layout" = 1 ]; then
		lm="$(printf '%s' "${lv[$m]}" | quantile 0.5)" lq="$(printf '%s' "${lv[$m]}" | quartiles)"
		echo "$workload seed=$seed: layout control median [Q1 Q3] $m $bq -> $lq ($(delta "$bm" "$lm")); control ${better[$j]} in ${lwins[$m]} of $n pairs"
	fi
done
