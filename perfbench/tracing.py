"""Per-layer tracing of snbsde from outside the package.

While a ``Tracer`` is installed, each traced function is replaced by a
wrapper under every name a caller can look it up by: the module that defines
it, every snbsde module (and any extra module) that imported it by name, and
the class that owns it for methods.  A wrapper records a span (name, start,
end, parent) and, for a few functions, counts read from its arguments or its
result.  Spans stay in memory until ``spans_table`` writes them out.

Self time of a span is its duration minus the durations of its direct
children; a layer's ``.s`` metric is the summed self time of its spans.
"""

import functools
import importlib
import pkgutil
import time
from collections import defaultdict
from typing import Callable, Dict, List

import numpy as np

import snbsde

# (module, qualified name) of every traced function; a dotted name is a method
TRACED = (
    ("grids", "NoiseSource.increments"),
    ("models", "solve_limit_ode"),
    ("presets", "build_preset"),
    ("estimation", "mde_asymptotic_variance"),
    ("estimation", "fisher_information"),
    ("engine", "run_batch"),
    ("engine", "simulate_batch"),
    ("engine", "pilot_batch"),
    ("engine", "flow_batch"),
    ("engine", "fisher_profile_batch"),
    ("engine", "score_tail_profile_batch"),
    ("engine", "score_head_batch"),
    ("value_functions", "gauss_hermite_expectation"),
    ("value_functions", "characteristics_limit_value"),
    ("pde", "solve_semilinear_pde"),
    ("pde", "eval_solution"),
    ("bsde", "efficiency_bounds"),
    ("experiment", "run_monte_carlo"),
    ("experiment", "shrinking_window_study"),
    ("experiment", "run_epsilon_block"),
    ("experiment", "build_value_function"),
    ("experiment", "normality_diagnostics"),
)

# experiment spans reported on their own; the others make up experiment.self_s
_EXPERIMENT_LISTED = ("experiment.build_value_function",
                      "experiment.normality_diagnostics")

PER_LAYER = (
    "value_functions.gauss_hermite_expectation.s",
    "value_functions.gh_points",
    "value_functions.payoff_evals",
    "value_functions.nodes_per_point",
    "engine.pilot_batch.s",
    "engine.simulate_batch.s",
    "grids.increments.s",
    "grids.increments.n",
    "engine.flow_batch.s",
    "engine.fisher_profile_batch.s",
    "engine.score_tail_profile_batch.s",
    "engine.score_head_batch.s",
    "engine.run_batch.self_s",
    "engine.run_batch.n",
    "engine.diverged",
    "engine.flat",
    "engine.quad_failed",
    "pde.solve_semilinear_pde.s",
    "pde.solve_semilinear_pde.n",
    "pde.node_updates",
    "pde.upwind_fraction",
    "pde.nx_to_tol",
    "pde.eval_solution.s",
    "value_functions.characteristics_limit_value.s",
    "value_functions.characteristics_limit_value.n",
    "bsde.efficiency_bounds.s",
    "experiment.build_value_function.s",
    "presets.build_preset.s",
    "models.solve_limit_ode.s",
    "estimation.mde_asymptotic_variance.s",
    "estimation.fisher_information.s",
    "experiment.normality_diagnostics.s",
    "experiment.self_s",
    "trace.overhead_frac",
)

PER_LAYER_UNITS = {
    "value_functions.gh_points": "count",
    "value_functions.payoff_evals": "count",
    "value_functions.nodes_per_point": "count",
    "pde.node_updates": "count",
    "pde.upwind_fraction": "fraction",
    "pde.nx_to_tol": "count",
    "engine.diverged": "count",
    "engine.flat": "count",
    "engine.quad_failed": "count",
    "trace.overhead_frac": "fraction",
}


def unit_of(metric: str) -> str:
    if metric in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[metric]
    return "count" if metric.endswith(".n") else "s"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname.split('.')[-1]}"


class Tracer:
    """Records spans and counters while installed; use as a context manager."""

    def __init__(self, extra_modules=()):
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._extra_modules = tuple(extra_modules)
        self._restore: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(tracer.counts, args, kwargs)
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.ends.append(np.nan)
            tracer._stack.append(idx)
            tracer.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(tracer.counts, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _modules(self):
        mods = [snbsde]
        for info in pkgutil.iter_modules(snbsde.__path__):
            mods.append(importlib.import_module(f"snbsde.{info.name}"))
        return mods + list(self._extra_modules)

    def __enter__(self):
        modules = self._modules()
        for mod_name, qualname in TRACED:
            module = importlib.import_module(f"snbsde.{mod_name}")
            name = _span_name(mod_name, qualname)
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                owner = getattr(module, cls_name)
                orig = owner.__dict__[meth]
                self._patch(owner, meth, self._wrap(name, orig))
                continue
            orig = getattr(module, qualname)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, wrapper)
        return self

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)
        return False

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Summed self seconds per span name."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        child = np.zeros(dur.size)
        parents = np.asarray(self.parents, dtype=int)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        out: Dict[str, float] = defaultdict(float)
        for name, s in zip(self.names, dur - child):
            out[name] += float(s)
        return dict(out)

    def call_counts(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for name in self.names:
            out[name] += 1
        return out

    def layer_metrics(self, nx_to_tol: int = 0) -> Dict[str, float]:
        """Every PER_LAYER metric except trace.overhead_frac for one repetition.

        A function the repetition never reached reports 0.
        """
        selfs = self.self_times()
        calls = self.call_counts()
        c = self.counts
        derived = {
            "value_functions.nodes_per_point": _ratio(c["value_functions.payoff_evals"],
                                                      c["value_functions.gh_points"]),
            "pde.upwind_fraction": _ratio(c["pde.upwind_nodes"], c["pde.node_updates"]),
            "pde.nx_to_tol": float(nx_to_tol),
            "experiment.self_s": float(sum(
                s for n, s in selfs.items()
                if n.startswith("experiment.") and n not in _EXPERIMENT_LISTED)),
        }
        out: Dict[str, float] = {}
        for metric in PER_LAYER:
            if metric == "trace.overhead_frac":
                continue
            if metric in derived:
                out[metric] = derived[metric]
            elif metric.endswith(".self_s"):
                out[metric] = selfs.get(metric[: -len(".self_s")], 0.0)
            elif metric.endswith(".s"):
                out[metric] = selfs.get(metric[: -len(".s")], 0.0)
            elif metric.endswith(".n"):
                out[metric] = float(calls.get(metric[: -len(".n")], 0))
            else:
                out[metric] = float(c[metric])
        return out

    def spans_table(self) -> dict:
        """Column-wise spans for writing out once the run has ended."""
        return {"name": list(self.names), "start": list(self.starts),
                "end": list(self.ends), "parent": list(self.parents)}


# ---------------------------------------------------------------------------
# counters read at the traced boundaries


def _count_payoff(counts, args, kwargs):
    """Wrap gauss_hermite_expectation's fn so every payoff value is counted."""
    params = dict(zip(("fn", "mean", "sd"), args), **kwargs)
    fn = params["fn"]

    def counted(pts):
        counts["value_functions.payoff_evals"] += np.size(pts)
        return fn(pts)

    params["fn"] = counted
    counts["value_functions.gh_points"] += np.broadcast(
        np.asarray(params["mean"]), np.asarray(params["sd"])).size
    return (), params


def _count_batch(counts, res) -> None:
    counts["engine.diverged"] += int(np.sum(res.diverged))
    counts["engine.flat"] += int(np.sum(res.flat))
    counts["engine.quad_failed"] += int(np.sum(res.quad_failed))


def _count_pde(counts, sol) -> None:
    updates = (sol.values.shape[0] - 1) * sol.substeps * (sol.grid.n_x + 1)
    counts["pde.node_updates"] += updates
    counts["pde.upwind_nodes"] += sol.upwind_fraction * updates


_BEFORE: Dict[str, Callable] = {
    "value_functions.gauss_hermite_expectation": _count_payoff,
}
_AFTER: Dict[str, Callable] = {
    "engine.run_batch": _count_batch,
    "pde.solve_semilinear_pde": _count_pde,
}
