"""Run every workload on several seeds and write the spread of each metric.

    python3 perfbench/baseline.py --seeds 10 --out perfbench/baselines/<commit>.json

For each workload: one ``run.py --trace 0`` per seed (seeds DEFAULT_SEED,
DEFAULT_SEED + 1, ...), then one ``run.py --trace 1`` at DEFAULT_SEED.  For
every end-to-end metric the file holds its ten values, median, quartiles (as
``statistics.quantiles(values, n=4)``) and the quartile distance as a share
of the median; the traced run's full record follows.  Commit the file of the
parent commit before claiming a gain against it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import DEFAULT_SEED, WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = out.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", nargs="*", default=list(WORKLOADS))
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    out = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        results, records = [], []
        for k in range(args.seeds):
            record, result = run_once(workload, DEFAULT_SEED + k, args.seconds, 0)
            results.append(result)
            records.append(record)
            print(workload, DEFAULT_SEED + k, json.dumps(result), flush=True)
        summary = {m: spread([r["metrics"][m]["value"] for r in results])
                   for m in results[0]["metrics"]}
        traced, _ = run_once(workload, DEFAULT_SEED, args.seconds, 1)
        out["workloads"][workload] = {
            "correct": all(r["correct"] for r in results),
            "end_to_end": summary,
            "accuracy_by_seed": [r["accuracy"] for r in records],
            "traced_run": traced,
        }
        meta = {k: records[0][k] for k in ("commit", "nproc", "python", "numpy", "scipy")}
        out.update(meta)
        for m, s in summary.items():
            print(f"{workload:13s} {m:12s} median {s['median']:.6g} "
                  f"iqr/median {s['iqr_share']:.4f}", flush=True)
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
