#!/usr/bin/env bash
# Replay contract of the command line.  Each subcommand runs at its quick
# built-in defaults through `python -m snbsde.cli`, is rerun from the
# echo.json it wrote into a second directory, and every CSV of the two runs
# must match byte for byte.  The Monte Carlo subcommands (experiment,
# delta-study) are also rerun in chunks of 7 replications, and their CSVs
# must not move either: the chunking contract, checked through the CLI.
# The summary.txt of estimate is compared too: it holds delta_head, the only
# output of the head score, and no wall time (the other summaries carry
# wall_time_s, so they are not compared).
#
#   bash scripts/cli_replay.sh [work_dir]     (from the repository root)
set -euo pipefail
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
work="${1:-$(mktemp -d)}"

# replay NAME CMD [ARGS...]: run CMD with ARGS into $work/NAME and check its reruns
replay() {
    local name=$1 cmd=$2
    shift 2
    local dir="$work/$name"
    python -m snbsde.cli "$cmd" "$@" --output "$dir/run"
    python -m snbsde.cli "$cmd" --config "$dir/run/echo.json" --output "$dir/replay"
    local reruns=(replay)
    case "$cmd" in
        experiment|delta-study)
            python -m snbsde.cli "$cmd" "$@" --set chunk_size=7 --output "$dir/chunk7"
            reruns+=(chunk7)
            ;;
    esac
    local n=0 csv rerun
    for csv in "$dir/run"/*.csv; do
        for rerun in "${reruns[@]}"; do
            cmp "$csv" "$dir/$rerun/$(basename "$csv")"
        done
        n=$((n + 1))
    done
    if [ "$n" -eq 0 ]; then
        echo "$name wrote no CSV" >&2
        exit 1
    fi
    echo "$name: $n CSV file(s) matched byte for byte in: ${reruns[*]}"
    if [ "$cmd" = estimate ]; then
        cmp "$dir/run/summary.txt" "$dir/replay/summary.txt"
        echo "$name: summary.txt matched byte for byte in: replay"
    fi
}

for cmd in simulate estimate approximate pde-solve experiment delta-study; do
    replay "$cmd" "$cmd"
done
# the PDE backend on a drift with no closed form: the march, its bundle and the
# characteristics bounds go through the replay and the chunking contract too,
# and the single-path API reads the same bundle
replay experiment-pde experiment --set backend=pde --set model=custom-pde
replay approximate-pde approximate --set model=custom-pde --set backend=pde
