#!/bin/sh
# bench-pair.sh PARENT WORKLOAD [N] [SEED] [CHANGE]
#
# The paired procedure of benchmark/README.md ("Comparing a parent and a
# change"): build the frozen benchmark once at two revisions, run N alternating
# parent/change pairs of one workload (which side goes first alternates, which
# is what cancels the host's drift), and print per-side median and quartiles of
# the four end-to-end metrics, the change's wins and losses on each of them
# (in the direction each improves: pkts_per_wall_s higher, the rest lower),
# calib_ns beside the host times, each side's GOMAXPROCS and nproc, and whether
# the sim_digest moved. Sides that ran at different GOMAXPROCS are not summarised: a trial cut
# across shards runs them on every core, so the core count is part of the
# result.
# The summary is also appended as one JSON line to perf/ledger.jsonl: both
# revisions, workload, seed, GOMAXPROCS/nproc, go version, each side's
# quartiles of the four metrics and calib_ns, pairs won and lost per metric
# ("wins", plus the older wall_s_wins/wall_s_losses), both sim_digests and
# every run's values.
# Both revisions are exported with `git archive` into a temporary directory —
# committed files only, nothing is left behind in the repository — and a
# change that edits benchmark/ or BENCHMARK.json is refused: the two sides must
# run the same benchmark code.
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
# heap_live_peak_mb setup_s calib_ns failed digest procs go" to $tmp/runs, procs
# being the run's GOMAXPROCS/nproc and go its go version.
one() {
	(cd "$tmp/$1" && "$tmp/bench_$1" -workload "$workload" -seed "$seed") >"$tmp/out" 2>&1 || {
		cat "$tmp/out" >&2
		echo "bench-pair: $1 run failed" >&2
		exit 1
	}
	awk -v side="$1" -v pair="$2" '
		$1 == "wall_s" || $1 == "pkts_per_wall_s" || $1 == "heap_live_peak_mb" || $1 == "setup_s" { m[$1] = $2 }
		/^calib_ns=/ { split($1, c, "="); calib = c[2] }
		/^sim_digest=/ { split($1, d, "="); digest = d[2] }
		/^trial_fail_share=/ { split($1, f, "="); failed = f[2] }
		/^commit=/ { for (i = 1; i <= NF; i++) { split($i, kv, "="); if (kv[1] == "GOMAXPROCS") gmp = kv[2]; if (kv[1] == "nproc") np = kv[2]; if ($i ~ /^go[0-9]/) gover = $i } }
		END { print side, pair, m["wall_s"], m["pkts_per_wall_s"], m["heap_live_peak_mb"], m["setup_s"], calib, failed, digest, gmp "/" np, gover }
	' "$tmp/out" | tee -a "$tmp/runs"
}

echo "side pair wall_s pkts_per_wall_s heap_live_peak_mb setup_s calib_ns failed sim_digest GOMAXPROCS/nproc go"
i=1
while [ "$i" -le "$n" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		one parent "$i"; one change "$i"
	else
		one change "$i"; one parent "$i"
	fi
	i=$((i + 1))
done

# Summary: quartiles by linear interpolation over the sorted runs of a side;
# the ledger line goes to $tmp/ledger and is appended once the summary passed.
awk -v parent="$(git -C "$root" rev-parse "$parent")" -v change="$(git -C "$root" rev-parse "$change")" \
	-v workload="$workload" -v seed="$seed" -v ledger="$tmp/ledger" '
	function q(a, n, p,    h, lo) { h = (n - 1) * p + 1; lo = int(h); return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo]) }
	function sortcol(side, col, out,    n, i, j, t) {
		n = 0
		for (i = 1; i <= runs; i++) if (s[i] == side) out[++n] = v[i, col]
		for (i = 2; i <= n; i++) { t = out[i]; for (j = i - 1; j >= 1 && out[j] > t; j--) out[j + 1] = out[j]; out[j + 1] = t }
		return n
	}
	{ runs++; s[runs] = $1; pair[runs] = $2; for (c = 3; c <= 7; c++) v[runs, c] = $c; dig[$1] = dig[$1] " " $9; for (c = 3; c <= 6; c++) pv[$1, $2, c] = $c; pairs[$2]
	  split($10, pn, "/"); gmp[pn[1]]++; if (!(($1, $10) in seen)) { seen[$1, $10]; procs[$1] = procs[$1] " " $10 }; procs1 = $10; gover[$1] = $11
	  rows = rows sprintf("%s{\"side\":\"%s\",\"pair\":%d,\"wall_s\":%s,\"pkts_per_wall_s\":%s,\"heap_live_peak_mb\":%s,\"setup_s\":%s,\"calib_ns\":%s}", runs == 1 ? "" : ",", $1, $2, $3, $4, $5, $6, $7) }
	END {
		printf "\nGOMAXPROCS/nproc: parent%s, change%s\n", procs["parent"], procs["change"]
		if (length(gmp) != 1) {
			print "bench-pair: the runs differ in GOMAXPROCS; not summarising" > "/dev/stderr"
			exit 1
		}
		split("wall_s pkts_per_wall_s heap_live_peak_mb setup_s calib_ns", name, " ")
		printf "\n%-18s %-7s %12s %12s %12s\n", "metric", "side", "q1", "median", "q3"
		for (k = 1; k <= 2; k++) {
			side = k == 1 ? "parent" : "change"
			js[side] = ""
			for (c = 3; c <= 7; c++) {
				n = sortcol(side, c, a)
				med[side, c] = q(a, n, 0.5); iqr[side, c] = q(a, n, 0.75) - q(a, n, 0.25)
				line[c, side] = sprintf("%-18s %-7s %12.6g %12.6g %12.6g", name[c - 2], side, q(a, n, 0.25), med[side, c], q(a, n, 0.75))
				js[side] = js[side] sprintf("%s\"%s\":[%.10g,%.10g,%.10g]", c == 3 ? "" : ",", name[c - 2], q(a, n, 0.25), med[side, c], q(a, n, 0.75))
			}
		}
		for (c = 3; c <= 7; c++) printf "%s\n%s\n", line[c, "parent"], line[c, "change"]
		# A win is a pair whose change side is better in the direction the
		# metric improves in: pkts_per_wall_s (column 4) is higher-is-better.
		printf "\n"
		for (c = 3; c <= 6; c++) {
			won[c] = lost[c] = 0
			for (p in pairs) {
				delta = pv["change", p, c] - pv["parent", p, c]
				if (c == 4) delta = -delta
				if (delta < 0) won[c]++; else if (delta > 0) lost[c]++
			}
			d = (med["change", c] - med["parent", c]) / med["parent", c] * 100
			printf "%s: change wins %d, loses %d of %d pairs; median %+.1f %% (parent IQR %.1f %% of its median)\n",
				name[c - 2], won[c], lost[c], length(pairs), d, iqr["parent", c] / med["parent", c] * 100
			wj = wj sprintf("%s\"%s\":{\"won\":%d,\"lost\":%d}", c == 3 ? "" : ",", name[c - 2], won[c], lost[c])
		}
		split(dig["parent"], dp, " "); split(dig["change"], dc, " ")
		printf "sim_digest: parent %s, change %s (%s)\n", substr(dp[1], 1, 12), substr(dc[1], 1, 12), dp[1] == dc[1] ? "equal: every simulated statistic identical" : "DIFFERENT: simulated statistics or event counts moved"
		split(procs1, pn, "/")
		printf "{\"parent\":\"%s\",\"change\":\"%s\",\"workload\":\"%s\",\"seed\":%d,\"gomaxprocs\":%d,\"nproc\":%d,\"go\":{\"parent\":\"%s\",\"change\":\"%s\"},\"pairs\":%d,\"wins\":{%s},\"wall_s_wins\":%d,\"wall_s_losses\":%d,\"quartiles\":{\"parent\":{%s},\"change\":{%s}},\"sim_digest\":{\"parent\":\"%s\",\"change\":\"%s\"},\"runs\":[%s]}\n",
			parent, change, workload, seed, pn[1], pn[2], gover["parent"], gover["change"], length(pairs), wj, won[3], lost[3], js["parent"], js["change"], dp[1], dc[1], rows > ledger
	}
' "$tmp/runs"
mkdir -p "$root/perf"
cat "$tmp/ledger" >>"$root/perf/ledger.jsonl"
echo "bench-pair: appended to perf/ledger.jsonl"
