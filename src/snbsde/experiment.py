"""Monte Carlo harness: risk tables, normality diagnostics, window studies.

Replications are dispatched to the lockstep engine in fixed-order chunks and
every reduction is replication-local, so a report is a deterministic function
of its configuration: identical CSV bytes for any chunk size.
Wall time is reported only in the human summary, never in the CSV.
"""

import math
import time
from dataclasses import dataclass, field, fields, asdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import engine
from .bsde import efficiency_bounds
from .errors import (ConfigurationError, DiagnosticError, ExperimentAbortedError)
from .estimation import limit_quantities
from .grids import TimeGrid
from .pde import PdeGrid, default_domain, theta_derivatives_by_bundle
from .presets import ModelBundle, build_preset
from .value_functions import LinearValueFunction

REPORT_COLUMNS = ("epsilon", "t", "riskY", "boundY", "ratioY", "riskZ",
                  "boundZ", "ratioZ", "var_ratio_theta", "ks_p", "n_clamped",
                  "n_diverged")
PLUGIN_COLUMNS = ("epsilon", "t", "riskY_onestep", "riskY_plugin",
                  "excess_mean", "t_stat", "p_value")
PILOT_COLUMNS = ("epsilon", "pilot_var_norm", "pilot_var_limit", "var_ratio")
STUDY_COLUMNS = ("schedule", "kappa", "epsilon", "delta_requested",
                 "delta_snapped", "window_nodes", "proxy", "flagged", "ran",
                 "q95_sup_err", "pilot_rmse_norm")

FAILURE_FRACTION_CAP = 0.10
MIN_WINDOW_NODES = 4
MIN_DIAGNOSTIC_SAMPLES = 100
# keys of ExperimentConfig.pde_params
PDE_KEYS = ("x_min", "x_max", "n_x", "n_t", "dtheta")


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    v = float(v)
    if np.isnan(v):
        return "nan"
    return f"{v:.12g}"


def _write_csv(path, columns, rows) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass
class ExperimentConfig:
    """Declarative description of one Monte Carlo study."""

    model: str = "linear-constant-drift"
    model_params: dict = field(default_factory=dict)
    theta0: float = 1.0
    epsilon_list: Tuple[float, ...] = (0.1, 0.05, 0.02)
    delta: float = 0.1
    t_report: Tuple[float, ...] = (0.25, 0.5, 0.75)
    n_steps: int = 1000
    n_replications: int = 200
    base_seed: int = 20240901
    backend: str = "closed-form"
    chunk_size: int = 1024
    plugin: bool = True
    pde_params: dict = field(default_factory=dict)

    def grid(self, bundle: ModelBundle) -> TimeGrid:
        return TimeGrid(0.0, bundle.model.horizon, self.n_steps)

    def validate(self) -> ModelBundle:
        bundle = build_preset(self.model, self.model_params)
        eps = tuple(float(e) for e in self.epsilon_list)
        if not eps:
            raise ConfigurationError("epsilon_list must be nonempty")
        if any(e <= 0 for e in eps):
            raise ConfigurationError("epsilon values must be positive")
        if any(b >= a for a, b in zip(eps[:-1], eps[1:])):
            raise ConfigurationError("epsilon_list must be strictly decreasing")
        if self.n_replications < MIN_DIAGNOSTIC_SAMPLES:
            raise ConfigurationError(
                f"n_replications must be at least {MIN_DIAGNOSTIC_SAMPLES}")
        if self.n_steps < 10:
            raise ConfigurationError("n_steps must be at least 10")
        grid = self.grid(bundle)
        i = grid.node_index(self.delta)  # raises if not a node
        if i < 1:
            raise ConfigurationError("delta must be positive")
        if not self.t_report:
            raise ConfigurationError("t_report must be nonempty")
        for t in self.t_report:
            j = grid.node_index(t)
            if j < i:
                raise ConfigurationError(
                    f"report time {t} precedes the window end {self.delta}")
        if not bundle.model.contains_theta(self.theta0):
            raise ConfigurationError("theta0 outside the parameter interval")
        if self.backend not in ("closed-form", "pde"):
            raise ConfigurationError("backend must be closed-form or pde")
        if self.backend == "closed-form" and bundle.linear is None:
            raise ConfigurationError(
                f"model {self.model} has no closed form; use the pde backend")
        unread = unread_pde_params(self.backend, self.pde_params)
        if unread:
            raise ConfigurationError(
                f"pde parameter '{unread[0]}' is not read by the {self.backend} backend")
        if self.chunk_size < 1:
            raise ConfigurationError("chunk_size must be at least 1")
        return bundle


def unread_pde_params(backend: str, pde_params) -> list:
    """The keys of pde_params that a study on backend does not read: all of
    them on the closed-form backend, those outside PDE_KEYS on the pde one."""
    return [key for key in pde_params if backend != "pde" or key not in PDE_KEYS]


def pde_grid(bundle: ModelBundle, pde_params: dict) -> PdeGrid:
    """The PdeGrid that pde_params (keys PDE_KEYS) ask for: the rectangle
    [x_min, x_max] when both bounds are given, the default_domain when
    neither is, n_x = 400 space intervals unless given.  Raises
    ConfigurationError for an unknown key or a lone bound."""
    for key in pde_params:
        if key not in PDE_KEYS:
            raise ConfigurationError(f"unknown pde parameter '{key}'")
    if ("x_min" in pde_params) != ("x_max" in pde_params):
        raise ConfigurationError("pde parameters x_min and x_max must be given together")
    if "x_min" in pde_params:
        lo, hi = float(pde_params["x_min"]), float(pde_params["x_max"])
    else:
        lo, hi = default_domain(bundle.model)
    return PdeGrid(lo, hi, int(pde_params.get("n_x", 400)), bundle.model.horizon,
                   pde_params.get("n_t"))


def build_value_function(bundle: ModelBundle, config: ExperimentConfig,
                         epsilon: float):
    """Closed-form evaluator when available, otherwise a grid-solver bundle."""
    if config.backend == "closed-form":
        return LinearValueFunction(bundle.linear, epsilon)
    return theta_derivatives_by_bundle(bundle.model, bundle.driver, bundle.terminal.f,
                                       config.theta0, epsilon,
                                       pde_grid(bundle, config.pde_params),
                                       dtheta=config.pde_params.get("dtheta"))


@dataclass
class NormalityReport:
    n: int
    var_ratio: float
    ks_p: float


def _ks_uniform_p(lam: float) -> float:
    if lam <= 0.0:
        return 1.0
    if lam < 1.0:
        # small-statistic side of the theta-function identity; the direct
        # tail sum would need thousands of terms down here
        k = np.arange(1, 11)
        cdf = np.sqrt(2.0 * np.pi) / lam * np.sum(
            np.exp(-((2.0 * k - 1.0) ** 2) * np.pi**2 / (8.0 * lam**2)))
        return float(min(max(1.0 - cdf, 0.0), 1.0))
    k = np.arange(1, 51)
    q = 2.0 * np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * k**2 * lam**2))
    return float(min(max(q, 0.0), 1.0))


_ERFC = np.frompyfunc(math.erfc, 1, 1)


def _normal_cdf(z):
    """The standard normal CDF 0.5 erfc(-z / sqrt(2)), element by element
    with the C library's math.erfc: within 2.2e-16 of scipy.special.ndtr,
    without importing scipy."""
    return 0.5 * np.asarray(_ERFC(np.multiply(-np.sqrt(0.5), z)), dtype=float)


def normality_diagnostics(samples: np.ndarray, target_variance: float) -> NormalityReport:
    """Compare a sample against the centered normal with the given variance.

    Returns the sample/target variance ratio plus the asymptotic p-value of
    a one-sample KS statistic, whose normal CDF is _normal_cdf.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n < MIN_DIAGNOSTIC_SAMPLES:
        raise DiagnosticError(
            f"need at least {MIN_DIAGNOSTIC_SAMPLES} samples, got {n}")
    if not np.all(np.isfinite(samples)):
        raise DiagnosticError("samples contain non-finite values")
    if target_variance <= 0:
        raise DiagnosticError("target variance must be positive")
    sample_var = float(np.var(samples, ddof=1))
    if sample_var <= 0:
        raise DiagnosticError("sample variance is degenerate")
    z = np.sort(samples) / np.sqrt(target_variance)
    cdf = _normal_cdf(z)
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    d = float(max(np.max(grid_hi - cdf), np.max(cdf - grid_lo)))
    p = _ks_uniform_p(np.sqrt(n) * d)
    return NormalityReport(n, sample_var / target_variance, p)


@dataclass
class EpsilonBlock:
    """Raw per-replication engine output for one noise level."""

    result: engine.BatchResult
    n_failed: int
    n_diverged: int
    vf: object = None


def _concat_results(parts: List[engine.BatchResult]) -> engine.BatchResult:
    if len(parts) == 1:
        return parts[0]

    def cat(attr):
        vals = [getattr(p, attr) for p in parts]
        if vals[0] is None:
            return None
        return np.concatenate(vals, axis=0)

    merged = {f.name: cat(f.name) for f in fields(engine.BatchResult)
              if f.name != "report_times"}
    # the report times are shared by every chunk, not one entry per replication
    return engine.BatchResult(report_times=parts[0].report_times, **merged)


def _path_buffer(config: ExperimentConfig, last: int) -> np.ndarray:
    """The (min(M, chunk_size), last+1) paths every chunk of a run simulates
    into, last the run's engine.last_node."""
    return np.empty((min(config.n_replications, config.chunk_size), last + 1))


def run_epsilon_block(bundle: ModelBundle, config: ExperimentConfig,
                      epsilon: float, eps_index: int, *, delta: Optional[float] = None,
                      report_times: Optional[Sequence[float]] = None,
                      sup: bool = False,
                      residuals: bool = False,
                      table: Optional[engine.ThetaTable] = None,
                      paths: Optional[np.ndarray] = None) -> EpsilonBlock:
    """Run all replications of one noise level through the engine.

    table is the study's engine.ThetaTable of (bundle.model, grid, delta); a
    block builds its own when none is given.  paths is the run's path buffer
    of min(n_replications, chunk_size) rows and last+1 columns, last =
    engine.last_node(grid, report_times, sup), which every chunk simulates
    into in turn; a block allocates its own when none is given.
    sup is engine.run_batch's: one switch for sup |Y_hat - Y| over every
    node of [delta, T].
    """
    grid = config.grid(bundle)
    delta = config.delta if delta is None else delta
    report_times = config.t_report if report_times is None else report_times
    vf = build_value_function(bundle, config, epsilon)
    m = config.n_replications
    # what every chunk reads of the limit flow, built once for the block
    # unless the study shares its own
    table = engine.ThetaTable(bundle.model, grid, delta) if table is None else table
    limit = engine.limit_weights(bundle.model, config.theta0, grid) if residuals else None
    if paths is None:
        paths = _path_buffer(config, engine.last_node(grid, report_times, sup))
    parts = []
    for lo in range(0, m, config.chunk_size):
        ids = [(eps_index << 32) | r for r in range(lo, min(lo + config.chunk_size, m))]
        parts.append(engine.run_batch(
            bundle.model, vf, config.theta0, epsilon, grid, delta,
            report_times, config.base_seed, ids, plugin=config.plugin,
            residuals=residuals, sup=sup, table=table, limit=limit,
            paths=paths))
    res = _concat_results(parts)
    n_failed = int(np.sum(res.failed))
    if n_failed > FAILURE_FRACTION_CAP * m:
        low_info = res.failed & ~(res.diverged | res.flat)
        raise ExperimentAbortedError(
            f"{n_failed} of {m} replications failed at epsilon={epsilon} "
            f"(diverged {int(np.sum(res.diverged))}, flat {int(np.sum(res.flat))}, "
            f"information below floor {int(np.sum(low_info))})")
    return EpsilonBlock(res, n_failed, int(np.sum(res.diverged)), vf)


@dataclass
class ExperimentReport:
    """Risk table plus pilot and comparator summaries for one study."""

    config: ExperimentConfig
    rows: List[dict]
    pilot_rows: List[dict]
    plugin_rows: List[dict]
    failures: Dict[float, int]
    wall_time_s: float

    def to_csv(self, path) -> None:
        _write_csv(path, REPORT_COLUMNS, self.rows)

    def plugin_to_csv(self, path) -> None:
        _write_csv(path, PLUGIN_COLUMNS, self.plugin_rows)

    def pilot_to_csv(self, path) -> None:
        _write_csv(path, PILOT_COLUMNS, self.pilot_rows)

    def summary_text(self) -> str:
        c = self.config
        lines = [
            "monte carlo summary",
            f"model={c.model} backend={c.backend} theta0={_fmt(c.theta0)}",
            f"replications={c.n_replications} steps={c.n_steps} "
            f"delta={_fmt(c.delta)} seed={c.base_seed}",
            f"wall_time_s={self.wall_time_s:.2f}",
        ]
        for eps in c.epsilon_list:
            lines.append(f"epsilon={_fmt(eps)}: failures={self.failures[eps]}")
        for row in self.rows:
            lines.append(
                "eps={epsilon} t={t}: ratioY={ratioY} ratioZ={ratioZ} "
                "var_ratio={var_ratio_theta} ks_p={ks_p}".format(
                    **{k: _fmt(row[k]) for k in row}))
        return "\n".join(lines) + "\n"


def run_monte_carlo(config: ExperimentConfig) -> ExperimentReport:
    """Risk table for the one-step construction against its pointwise bounds.

    For each noise level and report time: normalized empirical risks of the
    approximations against the true pair, the pointwise bounds, normalized
    estimator variance against the information limit, a KS normality check,
    clamp and divergence counts.  The plug-in comparator gets a paired
    one-sided test of excess risk; pilots are compared with their limit
    variance.

    The theta0 limit quantities (the pilot's limit variance, and x_t and
    I(theta0, t) at the report times) come from one
    estimation.limit_quantities pass per study, so a row's bounds and its
    var_ratio_theta target 1/I divide by the same I(theta0, t).
    """
    t_start = time.perf_counter()
    bundle = config.validate()
    grid = config.grid(bundle)
    model = bundle.model

    rows: List[dict] = []
    plugin_rows: List[dict] = []
    pilot_rows: List[dict] = []
    failures: Dict[float, int] = {}

    report_times = tuple(float(t) for t in config.t_report)
    limit = limit_quantities(model, config.theta0, config.delta, report_times)
    pilot_var_limit = limit.d2
    bounds = None
    # the limit flow does not depend on epsilon: one table serves every block
    table = engine.ThetaTable(model, grid, config.delta)
    # and one path buffer every chunk of every block simulates into, as far
    # as the last report reads
    paths = _path_buffer(config, engine.last_node(grid, report_times))

    for e_idx, eps in enumerate(config.epsilon_list):
        block = run_epsilon_block(bundle, config, eps, e_idx,
                                  report_times=report_times, table=table, paths=paths)
        res = block.result
        failures[eps] = block.n_failed
        valid = ~res.failed
        if bounds is None:
            # the limit derivatives do not depend on epsilon either
            bounds = efficiency_bounds(model, block.vf, config.theta0, report_times,
                                       limit=limit)

        for j, t in enumerate(report_times):
            bound_y, bound_z = float(bounds[0][j]), float(bounds[1][j])
            info_t = float(limit.info[j])

            err_y = res.y_hat[valid, j] - res.y_true[valid, j]
            err_z = res.z_hat[valid, j] - res.z_true[valid, j]
            risk_y = float(np.mean(err_y**2)) / eps**2
            risk_z = float(np.mean(err_z**2)) / eps**4
            theta_norm = (res.theta_onestep[valid, j] - config.theta0) / eps
            diag = normality_diagnostics(theta_norm, 1.0 / info_t)
            rows.append({
                "epsilon": eps,
                "t": t,
                "riskY": risk_y,
                "boundY": bound_y,
                "ratioY": risk_y / bound_y if bound_y > 0 else np.nan,
                "riskZ": risk_z,
                "boundZ": bound_z,
                "ratioZ": risk_z / bound_z if bound_z > 0 else np.nan,
                "var_ratio_theta": diag.var_ratio,
                "ks_p": diag.ks_p,
                "n_clamped": int(np.sum(res.clamped[valid, j])),
                "n_diverged": block.n_diverged,
            })

            if config.plugin:
                err_p = res.y_plugin[valid, j] - res.y_true[valid, j]
                excess = err_p**2 - err_y**2
                mean_ex = float(np.mean(excess))
                sd_ex = float(np.std(excess, ddof=1))
                n_ex = excess.size
                if sd_ex > 0:
                    t_stat = mean_ex / (sd_ex / np.sqrt(n_ex))
                    p_val = float(1.0 - _normal_cdf(t_stat))
                else:
                    t_stat, p_val = np.nan, np.nan
                plugin_rows.append({
                    "epsilon": eps,
                    "t": t,
                    "riskY_onestep": risk_y,
                    "riskY_plugin": float(np.mean(err_p**2)) / eps**2,
                    "excess_mean": mean_ex / eps**2,
                    "t_stat": t_stat,
                    "p_value": p_val,
                })

        pilot_norm = (res.theta_pilot[valid] - config.theta0) / eps
        pilot_var = float(np.var(pilot_norm, ddof=1))
        pilot_rows.append({
            "epsilon": eps,
            "pilot_var_norm": pilot_var,
            "pilot_var_limit": pilot_var_limit,
            "var_ratio": pilot_var / pilot_var_limit,
        })
        # the next block runs without this one's value function and results
        del block, res

    return ExperimentReport(config, rows, pilot_rows, plugin_rows, failures,
                            time.perf_counter() - t_start)


# ---------------------------------------------------------------------------
# shrinking estimation windows


def _schedule_eps2log(eps: float) -> float:
    return eps**2 * np.log(1.0 / eps)


def _schedule_power(kappa: float, eps: float) -> float:
    return eps**kappa


@dataclass
class StudyReport:
    config: ExperimentConfig
    rows: List[dict]
    contracted: Dict[str, bool]
    wall_time_s: float

    def to_csv(self, path) -> None:
        _write_csv(path, STUDY_COLUMNS, self.rows)

    def summary_text(self) -> str:
        lines = ["shrinking window study",
                 f"model={self.config.model} theta0={_fmt(self.config.theta0)}",
                 f"wall_time_s={self.wall_time_s:.2f}"]
        for name, ok in self.contracted.items():
            lines.append(f"schedule {name}: sup-error contracted={ok}")
        return "\n".join(lines) + "\n"


def shrinking_window_study(config: ExperimentConfig,
                           kappa_list: Sequence[float] = (3.0,)) -> StudyReport:
    """Drive the window end toward zero along named schedules.

    A schedule whose decay-rate proxy eps/sqrt(delta) fails to decrease along
    epsilon_list is flagged and not simulated: the window shrinks faster than
    the noise resolves the parameter, so its pilots do not concentrate.  For
    the remaining schedules each requested delta is snapped to the nearest
    grid node (windows below MIN_WINDOW_NODES steps are skipped) and the 95th
    percentile of sup |Y_hat - Y| over every node of [delta, T] is tracked
    per noise level.
    Every window's engine.ThetaTable comes from ThetaTable.for_window of one
    study table, so the study integrates the information flow once.
    """
    t_start = time.perf_counter()
    bundle = config.validate()
    grid = config.grid(bundle)

    schedules: List[Tuple[str, float, Callable]] = [("eps2-log", np.nan, _schedule_eps2log)]
    for kappa in kappa_list:
        if kappa <= 0:
            raise ConfigurationError("kappa must be positive")
        schedules.append((f"power-{_fmt(kappa)}", float(kappa),
                          lambda e, k=kappa: _schedule_power(k, e)))

    rows: List[dict] = []
    contracted: Dict[str, bool] = {}
    eps_list = tuple(float(e) for e in config.epsilon_list)
    # owns the information part of (model, grid) that every window's table
    # shares; its own window parts are never read, so never built
    tables = engine.ThetaTable(bundle.model, grid, config.delta)
    # the sup statistic reads every node to T
    paths = _path_buffer(config, grid.n_steps)

    for s_idx, (name, kappa, fn) in enumerate(schedules):
        deltas = [fn(e) for e in eps_list]
        proxies = [e / np.sqrt(d) if d > 0 else np.inf
                   for e, d in zip(eps_list, deltas)]
        flagged = any(p2 >= p1 * (1.0 - 1e-9)
                      for p1, p2 in zip(proxies[:-1], proxies[1:]))
        q95s: List[float] = []
        ran_all = True
        for e_idx, (eps, d_req, proxy) in enumerate(zip(eps_list, deltas, proxies)):
            nodes = int(round(d_req / grid.h))
            d_snap = nodes * grid.h
            row = {
                "schedule": name,
                "kappa": kappa,
                "epsilon": eps,
                "delta_requested": d_req,
                "delta_snapped": d_snap,
                "window_nodes": nodes,
                "proxy": proxy,
                "flagged": flagged,
                "ran": False,
                "q95_sup_err": np.nan,
                "pilot_rmse_norm": np.nan,
            }
            if not flagged and nodes >= MIN_WINDOW_NODES:
                block = run_epsilon_block(
                    bundle, config, eps, (s_idx + 1) << 20 | e_idx,
                    delta=d_snap, report_times=(grid.t_end,),
                    sup=True, table=tables.for_window(d_snap), paths=paths)
                res = block.result
                valid = ~res.failed
                q95 = float(np.percentile(res.sup_abs_y_err[valid], 95.0))
                pilot_norm = (res.theta_pilot[valid] - config.theta0) / eps
                row["ran"] = True
                row["q95_sup_err"] = q95
                row["pilot_rmse_norm"] = float(np.sqrt(np.mean(pilot_norm**2)))
                q95s.append(q95)
            else:
                ran_all = False
            rows.append(row)
        contracted[name] = (ran_all and len(q95s) == len(eps_list)
                            and all(b < a for a, b in zip(q95s[:-1], q95s[1:])))

    return StudyReport(config, rows, contracted, time.perf_counter() - t_start)


def config_to_dict(config: ExperimentConfig) -> dict:
    out = asdict(config)
    out["epsilon_list"] = list(config.epsilon_list)
    out["t_report"] = list(config.t_report)
    return out
