"""snbsde benchmark: one workload, timed from outside the package.

    python3 perfbench/run.py --workload core --seed 20240901 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the last line of standard output is a JSON
object holding the end-to-end metrics:

    setup_s      median over fresh interpreters of importing snbsde, building
                 the preset and validating the config
    wall_s       median seconds per workload repetition, tracing off
    peak_rss_mb  peak resident memory of the process that ran the workload

With ``--trace 1`` it holds the per-layer metrics of ``tracing.PER_LAYER``
instead, from repetitions traced by wrapping the public functions of each
snbsde module, plus ``trace.overhead_frac``.

A repetition fails when the workload's correctness gate fails (see
``workloads.py``); ``correct`` is true when none failed.  The full record of
the run (metadata, samples, accuracy figures, CSV digests) is written to
``.perfbench_runs/<workload>/result-trace<k>.json`` and printed on the line
before the result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("core", "window-study", "pde-block", "pde-refine")
DEFAULT_SEED = 20240901
SETUP_PROBES = 9
# a run must end within 180 s; leave room for set-up and reporting
WORKER_TIMEOUT_S = 150.0


def _git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def measure_setup(workload: str, seed: int) -> list:
    """Seconds each fresh interpreter spent before the workload could start."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def run_worker(args, out_dir: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"workload {args.workload} ran past {WORKER_TIMEOUT_S} s")
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    with open(os.path.join(out_dir, "worker.json")) as fh:
        return json.load(fh)


def _median_of(dicts: list) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="snbsde benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "snbsde", "__init__.py")):
        print(f"no snbsde sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2

    out_dir = os.path.join(ROOT, ".perfbench_runs", args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    worker = run_worker(args, out_dir)
    reps = worker["reps"]
    plain = [r["wall_s"] for r in reps if not r["traced"]]
    traced = [r["wall_s"] for r in reps if r["traced"]]
    failed = sum(not r["ok"] for r in reps)

    if args.trace:
        metrics = _median_of([layer["metrics"] for layer in worker["layers"]])
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
        shown = {k: {"value": v, "unit": worker["units"][k]} for k, v in metrics.items()}
    else:
        shown = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(plain), "unit": "s"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
        }

    good = [r for r in reps if "digests" in r]
    repl_failed = sum(r["replications_failed"] for r in good)
    repl_attempted = sum(r["replications_attempted"] for r in good)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        **worker["versions"],
        "metrics": shown,
        "span_self_s": worker["layers"][-1]["self_s"] if worker["layers"] else {},
        "setup_samples_s": setup,
        "wall_samples_s": plain,
        "traced_wall_samples_s": traced,
        "failed_frac": repl_failed / repl_attempted if repl_attempted else 0.0,
        "accuracy": good[0]["info"] if good else {},
        "csv_sha256": good[0]["digests"] if good else {},
        "csv_stable_across_reps": all(r["digests"] == good[0]["digests"] for r in good),
        "failures": [r["reason"] for r in reps if not r["ok"]],
    }
    with open(os.path.join(out_dir, f"result-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": len(reps),
                      "failed": failed, "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
