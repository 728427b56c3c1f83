"""The four benchmark workloads, each run through the public snbsde API.

A workload is a function ``run(seed, out_dir) -> Outcome``.  It writes the
report CSVs the library produces into ``out_dir``, reads them back by column
name, and applies its correctness gate.  A gate failure marks the repetition
as failed; it never raises, so one bad repetition does not abort a run.
"""

import csv
import hashlib
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from snbsde.errors import SnbsdeError
from snbsde.experiment import (ExperimentConfig, run_monte_carlo,
                               shrinking_window_study)
from snbsde.pde import PdeGrid, default_domain, theta_derivatives_by_bundle
from snbsde.presets import build_preset
from snbsde.value_functions import LinearValueFunction


@dataclass
class Outcome:
    """What one repetition produced: gate verdict, info figures, CSV digests."""

    ok: bool
    reason: str = ""
    # accuracy figures (ratioY_dev, q95_sup_err, ...): kept in the run record
    # for information; they move with the seed, so they are not gated metrics
    info: Dict[str, float] = field(default_factory=dict)
    digests: Dict[str, str] = field(default_factory=dict)
    # replications flagged failed / attempted, summed over epsilon blocks
    replications_failed: int = 0
    replications_attempted: int = 0
    # pde-refine only: the ladder rung that met the tolerance
    nx_to_tol: int = 0


def sha256_of(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def read_rows(path: str) -> List[Dict[str, str]]:
    """CSV rows as dicts keyed by header name, so added columns are harmless."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _digest_all(out_dir: str, names: List[str]) -> Dict[str, str]:
    return {n: sha256_of(os.path.join(out_dir, n)) for n in names}


# ---------------------------------------------------------------------------
# configurations


def core_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        model="linear-constant-drift",
        model_params={"terminal": "identity"},
        theta0=1.0,
        epsilon_list=(0.02,),
        delta=0.1,
        t_report=(0.5,),
        n_steps=1000,
        n_replications=5000,
        base_seed=seed,
        backend="closed-form",
        plugin=True,
    )


def window_study_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        model="linear-constant-drift",
        model_params={"terminal": "identity", "theta_interval": (-1.0, 3.0)},
        theta0=1.0,
        epsilon_list=(0.1, 0.05, 0.02),
        delta=0.1,
        t_report=(1.0,),
        n_steps=4000,
        n_replications=1000,
        base_seed=seed,
        backend="closed-form",
        plugin=False,
    )


WINDOW_KAPPAS = (3.0,)


def pde_block_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        model="custom-pde",
        model_params={"drift_shape": "sine", "terminal": "cosine"},
        theta0=1.0,
        epsilon_list=(0.05, 0.02),
        delta=0.1,
        t_report=(0.25, 0.5, 0.75),
        n_steps=1000,
        n_replications=2000,
        base_seed=seed,
        backend="pde",
        plugin=True,
    )


REFINE_PRESET = ("linear-constant-drift", {"terminal": "cosine"})
REFINE_EPS = 0.02
REFINE_THETA = 1.0
REFINE_LADDER = (400, 800, 1600, 3200, 6400)
REFINE_TOL = 2e-3
REFINE_TIMES = (0.25, 0.5, 0.75)
REFINE_XS = np.linspace(-2.0, 3.0, 101)


# ---------------------------------------------------------------------------
# monte carlo reports


# numeric risk-table columns that must be finite on every row
RISK_COLUMNS = ("riskY", "boundY", "ratioY", "riskZ", "boundZ", "ratioZ",
                "var_ratio_theta", "ks_p")


def _write_mc_report(report, out_dir: str) -> List[str]:
    names = ["report.csv", "plugin.csv", "pilot.csv"]
    report.to_csv(os.path.join(out_dir, names[0]))
    report.plugin_to_csv(os.path.join(out_dir, names[1]))
    report.pilot_to_csv(os.path.join(out_dir, names[2]))
    return names


def _mc_info(rows: List[Dict[str, str]]) -> Dict[str, float]:
    ratio_y = [float(r["ratioY"]) for r in rows]
    ratio_z = [float(r["ratioZ"]) for r in rows if float(r["boundZ"]) > 0]
    var_ratio = [float(r["var_ratio_theta"]) for r in rows]
    info = {
        "ratioY_dev": max(abs(v - 1.0) for v in ratio_y),
        "var_ratio_dev": max(abs(v - 1.0) for v in var_ratio),
    }
    if ratio_z:
        info["ratioZ_dev"] = max(abs(v - 1.0) for v in ratio_z)
    return info


def var_ratio_tolerance(n_valid: int) -> float:
    """Band for |var_ratio_theta - 1|: 0.05, or four standard errors if wider.

    A sample variance of n normal draws has relative standard error
    sqrt(2 / (n - 1)), 0.020 at n = 5000, so a fixed 0.05 band would fail
    about one seed in eighty of a correct program.  Four standard errors fail
    about one in sixteen thousand.
    """
    return max(0.05, 4.0 * math.sqrt(2.0 / (n_valid - 1)))


def _replication_counts(config: ExperimentConfig, report) -> tuple:
    failed = sum(int(report.failures[e]) for e in config.epsilon_list)
    return failed, config.n_replications * len(config.epsilon_list)


# ---------------------------------------------------------------------------
# workloads


# why: the paper's headline check at acceptance scale; engine does the work, value_functions ~1%
def run_core(seed: int, out_dir: str) -> Outcome:
    config = core_config(seed)
    report = run_monte_carlo(config)
    names = _write_mc_report(report, out_dir)
    rows = read_rows(os.path.join(out_dir, "report.csv"))
    info = _mc_info(rows)
    failed, attempted = _replication_counts(config, report)
    ok = (info["ratioY_dev"] <= 0.10
          and info["var_ratio_dev"] <= var_ratio_tolerance(attempted - failed))
    reason = "" if ok else (f"ratioY_dev={info['ratioY_dev']:.4g} "
                            f"var_ratio_dev={info['var_ratio_dev']:.4g}")
    return Outcome(ok, reason, info, _digest_all(out_dir, names), failed, attempted)


# why: value_functions.gauss_hermite_expectation is about 91% of it; pilot windows of 6-92 nodes leave estimation idle
def run_window_study(seed: int, out_dir: str) -> Outcome:
    config = window_study_config(seed)
    report = shrinking_window_study(config, kappa_list=WINDOW_KAPPAS)
    report.to_csv(os.path.join(out_dir, "study.csv"))
    rows = read_rows(os.path.join(out_dir, "study.csv"))
    slow = sorted((r for r in rows if r["schedule"] == "eps2-log"),
                  key=lambda r: -float(r["epsilon"]))
    steep = [r for r in rows if r["schedule"] != "eps2-log"]
    q95 = [float(r["q95_sup_err"]) for r in slow]
    ran_all = all(r["ran"] == "1" and r["flagged"] == "0" for r in slow)
    decreasing = all(b < a for a, b in zip(q95, q95[1:]))
    steep_skipped = bool(steep) and all(r["flagged"] == "1" and r["ran"] == "0"
                                        for r in steep)
    ok = ran_all and decreasing and steep_skipped
    reason = "" if ok else (f"eps2-log q95={q95} ran_all={ran_all} "
                            f"power flagged and skipped={steep_skipped}")
    info = {"q95_sup_err": q95[-1]}
    # a study report carries no failure counts; a block over the cap raises
    attempted = config.n_replications * sum(r["ran"] == "1" for r in rows)
    return Outcome(ok, reason, info, _digest_all(out_dir, ["study.csv"]), 0, attempted)


# why: nonlinear drift makes the pilot's RK4 the hot spot; reads the PDE bundle and scalar characteristics bounds
def run_pde_block(seed: int, out_dir: str) -> Outcome:
    config = pde_block_config(seed)
    try:
        report = run_monte_carlo(config)
    except SnbsdeError as exc:
        return Outcome(False, f"block aborted: {exc}")
    names = _write_mc_report(report, out_dir)
    rows = read_rows(os.path.join(out_dir, "report.csv"))
    finite = all(math.isfinite(float(r[c])) for r in rows for c in RISK_COLUMNS)
    info = _mc_info(rows)
    failed, attempted = _replication_counts(config, report)
    reason = "" if finite else "non-finite value in the risk table"
    return Outcome(finite, reason, info, _digest_all(out_dir, names), failed, attempted)


def refine_errors(n_x: int, bundle, domain, exact: np.ndarray) -> float:
    """max |u_theta_x(PDE bundle at n_x) - closed form| over the check points."""
    model = bundle.model
    grid = PdeGrid(domain[0], domain[1], n_x, model.horizon)
    vf = theta_derivatives_by_bundle(model, bundle.driver, bundle.terminal.f,
                                     REFINE_THETA, REFINE_EPS, grid)
    t = np.asarray(REFINE_TIMES)[:, None]
    got = vf.value_theta_x(t, REFINE_XS[None, :], REFINE_THETA)
    return float(np.max(np.abs(got - exact)))


# why: the only workload where pde.solve_semilinear_pde dominates; time to a stated accuracy rewards a better scheme
def run_pde_refine(seed: int, out_dir: str) -> Outcome:
    del seed  # the PDE ladder draws no random numbers
    bundle = build_preset(*REFINE_PRESET)
    domain = default_domain(bundle.model)
    closed = LinearValueFunction(bundle.linear, REFINE_EPS)
    t = np.asarray(REFINE_TIMES)[:, None]
    exact = closed.value_theta_x(t, REFINE_XS[None, :], REFINE_THETA)
    lines = ["n_x,max_err_u_theta_x"]
    err, reached = math.inf, 0
    for n_x in REFINE_LADDER:
        err = refine_errors(n_x, bundle, domain, exact)
        lines.append(f"{n_x},{err!r}")
        if err <= REFINE_TOL:
            reached = n_x
            break
    with open(os.path.join(out_dir, "ladder.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    ok = reached > 0
    reason = "" if ok else f"no rung reached {REFINE_TOL}; last error {err:.4g}"
    return Outcome(ok, reason, {"pde_err_u_theta_x": err},
                   _digest_all(out_dir, ["ladder.csv"]), nx_to_tol=reached)


WORKLOADS: Dict[str, Callable[[int, str], Outcome]] = {
    "core": run_core,
    "window-study": run_window_study,
    "pde-block": run_pde_block,
    "pde-refine": run_pde_refine,
}


def setup_step(name: str, seed: int) -> object:
    """What a user pays before any work: build the preset and validate the config."""
    if name == "pde-refine":
        return build_preset(*REFINE_PRESET)
    configs = {"core": core_config, "window-study": window_study_config,
               "pde-block": pde_block_config}
    return configs[name](seed).validate()
