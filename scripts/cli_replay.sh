#!/usr/bin/env bash
# Replay contract of the command line.  Each subcommand runs at its quick
# built-in defaults through `python -m snbsde.cli`, is rerun from the
# echo.json it wrote into a second directory, and every CSV of the two runs
# must match byte for byte.
#
#   bash scripts/cli_replay.sh [work_dir]     (from the repository root)
set -euo pipefail
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
work="${1:-$(mktemp -d)}"
for cmd in simulate estimate approximate pde-solve experiment delta-study; do
    python -m snbsde.cli "$cmd" --output "$work/$cmd/run"
    python -m snbsde.cli "$cmd" --config "$work/$cmd/run/echo.json" --output "$work/$cmd/replay"
    n=0
    for csv in "$work/$cmd/run"/*.csv; do
        cmp "$csv" "$work/$cmd/replay/$(basename "$csv")"
        n=$((n + 1))
    done
    if [ "$n" -eq 0 ]; then
        echo "$cmd wrote no CSV" >&2
        exit 1
    fi
    echo "$cmd: $n CSV file(s) replayed byte for byte"
done
