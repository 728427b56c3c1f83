"""Child process that runs one workload for a fixed time and reports as JSON.

    python3 perfbench/worker.py --workload core --seed 1 --seconds 10 \
        --trace 0 --out-dir .perfbench_runs/core

Each repetition writes its report CSVs into ``<out-dir>/rep`` and is timed
with ``time.perf_counter``.  Repetitions start back to back (a closed loop
with one client) until ``--seconds`` have passed, and at least one runs.
With ``--trace 1`` untraced and traced repetitions alternate, so the tracing
overhead is measured on the same process; the spans of the last traced
repetition go to ``<out-dir>/spans.json``.  The summary goes to
``<out-dir>/worker.json``; the process's own peak resident memory is part of
it.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from tracing import PER_LAYER, Tracer, unit_of  # noqa: E402


def _one_rep(fn, seed, rep_dir, tracer=None):
    """Run one repetition; a crash counts as a failed repetition."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            outcome = fn(seed, rep_dir)
        else:
            with tracer:
                outcome = fn(seed, rep_dir)
    except Exception:  # the run goes on; the traceback is kept in the record
        return time.perf_counter() - t0, None, traceback.format_exc()
    return time.perf_counter() - t0, outcome, ""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    fn = workloads.WORKLOADS[args.workload]
    rep_dir = os.path.join(args.out_dir, "rep")
    os.makedirs(rep_dir, exist_ok=True)
    tracer = None
    reps = []  # one dict per repetition
    layers = []  # per traced repetition: metrics and self seconds per span name
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        if traced:
            tracer = Tracer(extra_modules=(workloads,))
        wall, outcome, error = _one_rep(fn, args.seed, rep_dir,
                                        tracer if traced else None)
        rep = {"wall_s": wall, "traced": traced, "ok": outcome is not None and outcome.ok,
               "reason": error or (outcome.reason if outcome else "")}
        if outcome is not None:
            rep.update(info=outcome.info, digests=outcome.digests,
                       replications_failed=outcome.replications_failed,
                       replications_attempted=outcome.replications_attempted)
        reps.append(rep)
        if traced:
            layers.append({
                "metrics": tracer.layer_metrics(outcome.nx_to_tol if outcome else 0),
                "self_s": tracer.self_times(),
            })
        need = 2 if args.trace else 1
        if len(reps) >= need and time.perf_counter() - start >= args.seconds:
            break

    if tracer is not None:
        with open(os.path.join(args.out_dir, "spans.json"), "w") as fh:
            json.dump(tracer.spans_table(), fh)
    summary = {
        "reps": reps,
        "layers": layers,
        "units": {k: unit_of(k) for k in PER_LAYER},
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    with open(os.path.join(args.out_dir, "worker.json"), "w") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
