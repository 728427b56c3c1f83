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
for cmd in simulate estimate approximate pde-solve experiment delta-study; do
    python -m snbsde.cli "$cmd" --output "$work/$cmd/run"
    python -m snbsde.cli "$cmd" --config "$work/$cmd/run/echo.json" --output "$work/$cmd/replay"
    reruns=(replay)
    case "$cmd" in
        experiment|delta-study)
            python -m snbsde.cli "$cmd" --set chunk_size=7 --output "$work/$cmd/chunk7"
            reruns+=(chunk7)
            ;;
    esac
    n=0
    for csv in "$work/$cmd/run"/*.csv; do
        for rerun in "${reruns[@]}"; do
            cmp "$csv" "$work/$cmd/$rerun/$(basename "$csv")"
        done
        n=$((n + 1))
    done
    if [ "$n" -eq 0 ]; then
        echo "$cmd wrote no CSV" >&2
        exit 1
    fi
    echo "$cmd: $n CSV file(s) matched byte for byte in: ${reruns[*]}"
    if [ "$cmd" = estimate ]; then
        cmp "$work/$cmd/run/summary.txt" "$work/$cmd/replay/summary.txt"
        echo "$cmd: summary.txt matched byte for byte in: replay"
    fi
done
