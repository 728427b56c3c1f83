"""The benchmark tracer's contract with the package.

perfbench/tracing.py wraps package functions by the names callers look them
up by, and reads fields of their results.  A renamed function or a dropped
field would otherwise show only in a traced benchmark run, so one small
engine block and one small PDE solve run here under the tracer.
"""

import os
import sys

from snbsde import engine, pde
from snbsde.grids import TimeGrid
from snbsde.presets import build_preset
from snbsde.value_functions import LinearValueFunction

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench"))
import tracing  # noqa: E402


def test_tracer_reports_every_layer_metric():
    b = build_preset("linear-constant-drift", {"terminal": "cosine"})
    grid = TimeGrid(0.0, 1.0, 100)
    pde_grid = pde.PdeGrid(-3.0, 3.0, 40, b.model.horizon, 20)
    with tracing.Tracer() as tracer:
        res = engine.run_batch(b.model, LinearValueFunction(b.linear, 0.1), 1.0, 0.1, grid,
                               0.1, (0.5,), 5, range(3))
        pde.solve_semilinear_pde(b.model, b.driver, b.terminal.f, 1.0, 0.1, pde_grid)
    metrics = tracer.layer_metrics()
    assert sorted(metrics) == sorted(m for m in tracing.PER_LAYER
                                     if m != "trace.overhead_frac")
    assert not res.failed.any()
    assert metrics["engine.run_batch.n"] == 1
    assert metrics["engine.quad_failed"] == 0
    assert metrics["pde.solve_semilinear_pde.n"] == 1
    assert metrics["pde.node_updates"] > 0
