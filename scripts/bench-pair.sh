#!/bin/sh
# bench-pair.sh PARENT WORKLOAD [N] [SEED] [CHANGE]
#
# The paired procedure of benchmark/README.md ("Comparing a parent and a
# change"): build the frozen benchmark once at two revisions, run N alternating
# parent/change pairs of one workload (which side goes first alternates, which
# is what cancels the host's drift), and print per-side median and quartiles of
# the four end-to-end metrics, the change's win count on wall_s, calib_ns beside
# the host times and whether the sim_digest moved. Both revisions are exported
# with `git archive` into a temporary directory — committed files only, nothing
# is left behind in the repository — and a change that edits benchmark/ or
# BENCHMARK.json is refused: the two sides must run the same benchmark code.
set -eu

[ $# -ge 2 ] || { echo "usage: $0 PARENT WORKLOAD [N=10] [SEED=9] [CHANGE=HEAD]" >&2; exit 2; }
parent=$1 workload=$2 n=${3:-10} seed=${4:-9} change=${5:-HEAD}

root=$(git rev-parse --show-toplevel)
if ! git -C "$root" diff --quiet "$parent" "$change" -- benchmark BENCHMARK.json; then
	echo "bench-pair: $parent and $change differ under benchmark/ or in BENCHMARK.json" >&2
	exit 1
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
for side in parent change; do
	eval rev=\$$side
	mkdir "$tmp/$side"
	git -C "$root" archive "$rev" | tar -x -C "$tmp/$side"
	go -C "$tmp/$side/benchmark" build -o "$tmp/bench_$side" themis/benchmark
done
echo "bench-pair: parent=$(git -C "$root" rev-parse --short "$parent") change=$(git -C "$root" rev-parse --short "$change") workload=$workload seed=$seed pairs=$n"

# one SIDE PAIR: a timed run; appends "side pair wall_s pkts_per_wall_s
# heap_live_peak_mb setup_s calib_ns failed digest" to $tmp/runs.
one() {
	(cd "$tmp/$1" && "$tmp/bench_$1" -workload "$workload" -seed "$seed") >"$tmp/out" 2>&1 || {
		cat "$tmp/out" >&2
		echo "bench-pair: $1 run failed" >&2
		exit 1
	}
	awk -v side="$1" -v pair="$2" '
		$1 == "wall_s" || $1 == "pkts_per_wall_s" || $1 == "heap_live_peak_mb" || $1 == "setup_s" { m[$1] = $2 }
		/^calib_ns=/ { split($1, c, "="); calib = c[2] }
		/^sim_digest=/ { split($1, d, "="); digest = substr(d[2], 1, 12) }
		/^trial_fail_share=/ { split($1, f, "="); failed = f[2] }
		END { print side, pair, m["wall_s"], m["pkts_per_wall_s"], m["heap_live_peak_mb"], m["setup_s"], calib, failed, digest }
	' "$tmp/out" | tee -a "$tmp/runs"
}

echo "side pair wall_s pkts_per_wall_s heap_live_peak_mb setup_s calib_ns failed sim_digest"
i=1
while [ "$i" -le "$n" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		one parent "$i"; one change "$i"
	else
		one change "$i"; one parent "$i"
	fi
	i=$((i + 1))
done

# Summary: quartiles by linear interpolation over the sorted runs of a side.
awk '
	function q(a, n, p,    h, lo) { h = (n - 1) * p + 1; lo = int(h); return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo]) }
	function sortcol(side, col, out,    n, i, j, t) {
		n = 0
		for (i = 1; i <= runs; i++) if (s[i] == side) out[++n] = v[i, col]
		for (i = 2; i <= n; i++) { t = out[i]; for (j = i - 1; j >= 1 && out[j] > t; j--) out[j + 1] = out[j]; out[j + 1] = t }
		return n
	}
	{ runs++; s[runs] = $1; pair[runs] = $2; for (c = 3; c <= 7; c++) v[runs, c] = $c; dig[$1] = dig[$1] " " $9; if ($1 == "parent") pw[$2] = $3; else cw[$2] = $3 }
	END {
		split("wall_s pkts_per_wall_s heap_live_peak_mb setup_s calib_ns", name, " ")
		printf "\n%-18s %-7s %12s %12s %12s\n", "metric", "side", "q1", "median", "q3"
		for (c = 3; c <= 7; c++) {
			for (k = 1; k <= 2; k++) {
				side = k == 1 ? "parent" : "change"
				n = sortcol(side, c, a)
				med[side, c] = q(a, n, 0.5); iqr[side, c] = q(a, n, 0.75) - q(a, n, 0.25)
				printf "%-18s %-7s %12.6g %12.6g %12.6g\n", name[c - 2], side, q(a, n, 0.25), med[side, c], q(a, n, 0.75)
			}
		}
		for (p in pw) { if (cw[p] < pw[p]) wins++; else if (cw[p] > pw[p]) losses++ }
		d = (med["change", 3] - med["parent", 3]) / med["parent", 3] * 100
		printf "\nwall_s: change wins %d, loses %d of %d pairs; median %+.1f %% (parent IQR %.1f %% of its median)\n",
			wins, losses, length(pw), d, iqr["parent", 3] / med["parent", 3] * 100
		split(dig["parent"], dp, " "); split(dig["change"], dc, " ")
		printf "sim_digest: parent %s, change %s (%s)\n", dp[1], dc[1], dp[1] == dc[1] ? "equal: every simulated statistic identical" : "DIFFERENT: simulated statistics or event counts moved"
	}
' "$tmp/runs"
