"""Checks of the benchmark itself; not part of the package's test suite.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py

Each workload test runs ``perfbench/run.py --trace 1`` once, which makes one
untraced and one traced repetition at the same seed, and reads the run record.
The window-study run takes about 30 s and 1.4 GB.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import snbsde.engine  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER, Tracer, unit_of  # noqa: E402


def _run(workload, trace, cwd=ROOT, seconds=0):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def traced_records():
    """Run record of one traced run per workload, made on first use."""
    records = {}

    def get(workload):
        if workload not in records:
            out = _run(workload, 1)
            assert out.returncode == 0, out.stderr
            result = json.loads(out.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            records[workload] = (result, json.loads(out.stdout.splitlines()[-2]))
        return records[workload]

    return get


def test_benchmark_json_names_what_the_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)
    assert [m["name"] for m in bench["per_layer"]] == list(PER_LAYER)
    assert all(m["unit"] == unit_of(m["name"]) for m in bench["per_layer"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_identical_csv_and_passes_gate(traced_records, workload):
    result, record = traced_records(workload)
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert result["attempted"] == 2
    assert record["csv_sha256"]
    assert record["csv_stable_across_reps"]
    assert set(result["metrics"]) == set(PER_LAYER)


def test_trace_sees_value_functions_dominate_window_study(traced_records):
    _, record = traced_records("window-study")
    vf_self = sum(s for name, s in record["span_self_s"].items()
                  if name.startswith("value_functions."))
    assert vf_self >= 0.8 * record["traced_wall_samples_s"][-1]


def test_trace_sees_pde_solve_as_largest_layer_of_pde_refine(traced_records):
    _, record = traced_records("pde-refine")
    selfs = record["span_self_s"]
    assert max(selfs, key=selfs.get) == "pde.solve_semilinear_pde"


def test_tracer_restores_every_patched_name():
    before = (snbsde.engine.simulate_batch, snbsde.experiment.efficiency_bounds,
              snbsde.grids.NoiseSource.__dict__["increments"],
              workloads.run_monte_carlo)
    with Tracer(extra_modules=(workloads,)):
        assert snbsde.engine.simulate_batch is not before[0]
        assert snbsde.experiment.efficiency_bounds is not before[1]
        assert workloads.run_monte_carlo is not before[3]
    after = (snbsde.engine.simulate_batch, snbsde.experiment.efficiency_bounds,
             snbsde.grids.NoiseSource.__dict__["increments"],
             workloads.run_monte_carlo)
    assert after == before


def test_var_ratio_tolerance_is_four_standard_errors_at_core_scale():
    assert workloads.var_ratio_tolerance(5000) == pytest.approx(0.08, abs=1e-3)
    assert workloads.var_ratio_tolerance(10**6) == 0.05


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("core", 0, cwd=str(tmp_path))
    assert out.returncode != 0
    assert out.stdout.strip() == ""
