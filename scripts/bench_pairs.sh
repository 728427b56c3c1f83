#!/usr/bin/env bash
# Alternating benchmark pairs: a parent revision against the working tree.
#
#   bash scripts/bench_pairs.sh <parent-rev> <workload> <pairs> [seed]   (from the repository root)
#
# Exports <parent-rev> into a temporary directory (git archive) and runs
# `perfbench/run.py --trace 0` for <pairs> pairs, one run in each tree per
# pair: the parent runs first on odd pairs, the working tree first on even
# ones, so a drift of the machine's load does not favour either side.  Each
# run lasts BENCHMARK.json's run_seconds.  Every pair prints the three
# end-to-end metrics of both runs and whether their csv_sha256 sets match;
# then each metric gets its median and quartiles per side, the change of the
# medians in percent and the number of pairs in which the working tree read
# lower.  The temporary directory is removed on exit.  The exit status is 1
# when the CSV digests of any pair differ, after the summary is printed.
set -euo pipefail
if (( $# < 3 || $# > 4 )); then
    echo "usage: $0 <parent-rev> <workload> <pairs> [seed]" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=$3 seed=${4:-20240901}
root=$(git rev-parse --show-toplevel)
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$root/BENCHMARK.json")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git -C "$root" archive "$rev" | tar -x -C "$tmp/parent"

# run TREE OUT: one trace-0 run in TREE; its full record goes to OUT
run() {
    if ! (cd "$1" && python3 perfbench/run.py --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace 0 >"$tmp/stdout" 2>"$tmp/stderr"); then
        cat "$tmp/stderr" >&2
        exit 1
    fi
    tail -n 2 "$tmp/stdout" | head -n 1 >"$2"
}

echo "workload $workload, seed $seed, $seconds s per run: parent $rev -> working tree"
for ((p = 1; p <= pairs; p++)); do
    if ((p % 2)); then
        run "$tmp/parent" "$tmp/parent-$p.json"
        run "$root" "$tmp/change-$p.json"
    else
        run "$root" "$tmp/change-$p.json"
        run "$tmp/parent" "$tmp/parent-$p.json"
    fi
done

python3 - "$tmp" "$pairs" <<'PY'
import json, statistics, sys

tmp, pairs = sys.argv[1], int(sys.argv[2])
names = ("wall_s", "peak_rss_mb", "setup_s")
runs = {side: [json.load(open(f"{tmp}/{side}-{p}.json")) for p in range(1, pairs + 1)]
        for side in ("parent", "change")}
differ = 0
for p, (par, chg) in enumerate(zip(runs["parent"], runs["change"]), 1):
    shown = "  ".join(f"{k} {par['metrics'][k]['value']:.4g} -> "
                      f"{chg['metrics'][k]['value']:.4g}" for k in names)
    same = par["csv_sha256"] == chg["csv_sha256"]
    differ += not same
    print(f"pair {p} ({'parent' if p % 2 else 'change'} first): {shown}  "
          f"csv {'match' if same else 'DIFFER'}")


def spread(values):
    """median [lower quartile, upper quartile]"""
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


for k in names:
    par, chg = ([r["metrics"][k]["value"] for r in runs[side]] for side in ("parent", "change"))
    wins = sum(c < a for a, c in zip(par, chg))
    change = 100.0 * (statistics.median(chg) / statistics.median(par) - 1.0)
    print(f"{k}: parent {spread(par)} -> change {spread(chg)}, median {change:+.1f} %, "
          f"change lower in {wins} of {pairs} pairs")
if differ:
    print(f"csv digests differ in {differ} of {pairs} pairs")
    sys.exit(1)
PY
