#!/usr/bin/env bash
# benchpairs.sh <parent-rev> <workload[,workload...]> [pairs=10] [seconds=10] [first-seed]
#
# Paired-run comparison of the working tree against <parent-rev> on one
# or more BENCHMARK.json workloads, comma-separated; each gets its own
# pairs and its own table, in the order given. The parent's tree is
# extracted once (git archive) under the git-ignored .bench_build/ at
# the repository root. Each pair runs one untraced pass of the benchmark
#
#   bash benchmark/run.sh --workload W --seed S --seconds T --trace 0
#
# in each tree with the same seed; every workload's seeds are
# consecutive from first-seed (default: drawn from the clock, so every
# invocation uses fresh ones) and the side that runs first alternates.
# Prints each pair's five end-to-end metrics and failed count, then per
# metric each side's quartiles and median, the parent's quartile
# distance, the ratio of the medians, and in how many pairs the working
# tree won.
#
# Run nothing else on the box meanwhile: the pairs share its cores.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 5 ]]; then
	echo "usage: $0 <parent-rev> <workload[,workload...]> [pairs=10] [seconds=10] [first-seed]" >&2
	exit 2
fi
rev=$1 pairs=${3:-10} seconds=${4:-10}
IFS=, read -r -a workloads <<<"$2"
seed0=${5:-$(( $(date +%s) % 1000000 * 10 ))}
root="$(git rev-parse --show-toplevel)"
sha="$(git -C "$root" rev-parse --verify "$rev^{commit}")"

base="$root/.bench_build/pairs-$sha"
if [[ ! -f "$base/benchmark/run.sh" ]]; then
	rm -rf "$base"
	mkdir -p "$base"
	git -C "$root" archive "$sha" | tar -x -C "$base"
fi

# one <tree> <workload> <seed>: one untraced pass; prints the metrics
# and failed count as one tab-separated row.
one() {
	local out
	if ! out="$(cd "$1" && bash benchmark/run.sh --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 2>&1)"; then
		printf '%s\n' "$out" >&2
		echo "benchpairs: run failed in $1 ($2, seed $3)" >&2
		return 1
	fi
	printf '%s\n' "$out" | tail -n 1 | awk '
		function metric(name) {
			if (!match($0, "\"" name "\":\\{\"value\":[-+0-9.eE]+")) return "NaN"
			s = substr($0, RSTART, RLENGTH)
			sub(/.*:/, "", s)
			return s
		}
		{
			if (!match($0, /"failed":[0-9]+/)) { print "benchpairs: no result line" > "/dev/stderr"; exit 1 }
			failed = substr($0, RSTART + 9, RLENGTH - 9)
			printf "%s\t%s\t%s\t%s\t%s\t%s\n", metric("settled_tps"), metric("update_p50_us"),
				metric("query_p50_us"), metric("init_p50_us"), metric("setup_s"), failed
		}'
}

# table: reads one workload's pair rows on stdin and prints each pair,
# then the per-metric summary.
table() {
	awk -F '\t' '
	BEGIN {
		split("settled_tps update_p50_us query_p50_us init_p50_us setup_s", name, " ")
		split("1 0 0 0 0", higher, " ")
	}
	function quantile(a, n, q,    h, lo) {
		h = (n - 1) * q
		lo = int(h)
		return lo + 1 < n ? a[lo] + (h - lo) * (a[lo + 1] - a[lo]) : a[lo]
	}
	function sorted(src, n, dst,    i, j, v) {
		for (i = 0; i < n; i++) {
			v = src[i]
			for (j = i - 1; j >= 0 && dst[j] > v; j--) dst[j + 1] = dst[j]
			dst[j + 1] = v
		}
	}
	{
		printf "pair %d seed %s (%s first)\n", NR, $1, $2
		printf "  parent:"; for (m = 1; m <= 5; m++) printf " %s=%.6g", name[m], $(m + 2); printf " failed=%s\n", $8
		printf "  change:"; for (m = 1; m <= 5; m++) printf " %s=%.6g", name[m], $(m + 8); printf " failed=%s\n", $14
		for (m = 1; m <= 5; m++) {
			par[m, NR - 1] = $(m + 2)
			chg[m, NR - 1] = $(m + 8)
			if (higher[m] ? $(m + 8) > $(m + 2) : $(m + 8) < $(m + 2)) wins[m]++
		}
		failedP += $8; failedC += $14
		n = NR
	}
	END {
		printf "\n%-14s %34s   %34s %10s %8s %6s\n", "metric", "parent q1 / median / q3", "change q1 / median / q3", "parent iqr", "chg/par", "wins"
		for (m = 1; m <= 5; m++) {
			delete a; delete b; delete sa; delete sb
			for (i = 0; i < n; i++) { a[i] = par[m, i]; b[i] = chg[m, i] }
			sorted(a, n, sa); sorted(b, n, sb)
			pm = quantile(sa, n, 0.5); cm = quantile(sb, n, 0.5)
			printf "%-14s %10.6g / %9.6g / %9.6g   %10.6g / %9.6g / %9.6g %10.6g %7.3fx %3d/%d\n", name[m],
				quantile(sa, n, 0.25), pm, quantile(sa, n, 0.75),
				quantile(sb, n, 0.25), cm, quantile(sb, n, 0.75),
				quantile(sa, n, 0.75) - quantile(sa, n, 0.25), pm ? cm / pm : 0, wins[m] + 0, n
		}
		printf "failed: parent %d, change %d\n", failedP, failedC
	}'
}

dirty=""
[[ -z "$(git -C "$root" status --porcelain)" ]] || dirty="+dirty"
echo "parent $sha vs working tree $(git -C "$root" rev-parse --short HEAD)$dirty"
echo "nproc $(nproc), kernel $(uname -r)"

for workload in "${workloads[@]}"; do
	echo
	echo "benchpairs: $workload, $pairs pairs of ${seconds}s, seeds $seed0..$((seed0 + pairs - 1))"
	rows=""
	for ((i = 0; i < pairs; i++)); do
		seed=$((seed0 + i))
		if ((i % 2 == 0)); then
			p="$(one "$base" "$workload" "$seed")"
			c="$(one "$root" "$workload" "$seed")"
			first=parent
		else
			c="$(one "$root" "$workload" "$seed")"
			p="$(one "$base" "$workload" "$seed")"
			first=change
		fi
		rows+="$seed	$first	$p	$c"$'\n'
	done
	printf '%s' "$rows" | table
done
