"""Parameter estimation from one observed forward path.

Two-stage scheme.  A minimum-distance pilot estimate is formed on the learning
window [0, delta] by matching the observed path against the deterministic
limit flow in L^2.  The pilot is then improved by a single Newton-type step
built from a score statistic.  The pilot depends on the path on [0, delta],
so the head piece of the score on that window is the stochastic-integral-free
form, written with the weighted drift sensitivity and its state primitive

    B(theta, s, x) = S_theta(theta, s, x) / sigma(s, x)^2,
    A(theta, s, x) = int_{x0}^{x} B(theta, s, z) dz,

as A(delta, X_delta) - int_0^delta A_s ds minus Riemann integrals of
observables; its first two terms are the Stratonovich integral of B, which
the engine takes as a trapezoidal path sum (engine.score_head_batch).  The
tail piece on [delta, t] is the usual discretized score

    Delta_tail = sum_k B(theta, t_k, X_k) (X_{k+1} - X_k - S(theta, t_k, X_k) h).

The one-step estimate at time t is

    theta_onestep = theta_pilot + (Delta_tail + Delta_head) / I(theta_pilot, t),

with I the information integral of S_theta^2/sigma^2 along the limit flow at
the pilot value, clamped to the closure of the admissible interval.

The pilot, the scores, the information and the one-step estimates here are
the engine's batched stages on the one-row batch holding the observed path,
so a Monte Carlo replication and a single-path call compute the same numbers
by the same code.  What the reports measure against, the limit flow, the
information and the pilot's limit variance at the true parameter, comes from
one short augmented RK4 pass, limit_quantities.  The engine's per-row flags become exceptions: a flat or
unsettled pilot raises FlatObjectiveError, and information below the
invertibility floor SingularInformationError.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (ConfigurationError, FlatObjectiveError, IntegrationDivergedError,
                     SingularInformationError)
from .engine import (INFO_FLOOR, SCAN_POINTS, fisher_profile_batch, limit_weights,
                     onestep_batch, pilot_batch, refine_scan, score_head_batch,
                     score_tail_profile_batch, ThetaTable, _limit_factor, _step,
                     _table_for)
from .grids import Path
from .models import ModelSpec, broadcast_eval

# RK4 steps of the theta0 limit pass (limit_quantities): an even count on the
# learning window [0, delta], for the composite Simpson rule on its nodes, and
# the count whose step length bounds the steps from delta (or 0) to the
# latest requested time.
LIMIT_WINDOW_STEPS = 100
LIMIT_TAIL_STEPS = 200


@dataclass(frozen=True)
class EstimationWindow:
    """Learning window [0, delta] of the pilot estimate."""

    delta: float

    def __post_init__(self):
        if self.delta <= 0:
            raise ConfigurationError("delta must be positive")


@dataclass
class EstimateTrace:
    """One-step estimates and their ingredients over the nodes of [delta, T]."""

    theta_pilot: float
    delta: float
    times: np.ndarray
    theta_onestep: np.ndarray
    fisher: np.ndarray
    delta_tail: np.ndarray
    delta_head: float
    clamped: np.ndarray

    def node_index(self, t: float) -> int:
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise ConfigurationError(f"time {t} is not an evaluation node of the trace")
        return i

    def at(self, t: float) -> float:
        return float(self.theta_onestep[self.node_index(t)])


def _window_end(X: Path, delta: float) -> int:
    i = X.grid.node_index(delta)
    if i < 1:
        raise ConfigurationError("learning window too small for the grid")
    return i


def mde_estimate(model: ModelSpec, X: Path, delta: float,
                 table: Optional[ThetaTable] = None) -> float:
    """Minimum-distance pilot estimate on the learning window [0, delta].

    Minimizes the trapezoidal discretization of
    int_0^delta (X_t - x_t(theta))^2 dt over the closure of theta_interval,
    by engine.pilot_batch, reading the engine.ThetaTable of (model, X.grid,
    delta) given as table (built when None).  Raises FlatObjectiveError when
    the objective has no usable spread or its refinement does not settle.
    """
    _window_end(X, delta)
    theta, flagged = pilot_batch(model, X.values[None, :], X.grid, delta, table)
    if flagged[0]:
        raise FlatObjectiveError(
            "window objective is flat or its refinement did not settle; "
            "parameter not identifiable")
    return float(theta[0])


def fisher_profile(model: ModelSpec, theta: float, x: Path) -> np.ndarray:
    """Running information integral int_0^t S_theta^2/sigma^2 ds along x."""
    return fisher_profile_batch(model, np.array([float(theta)]), x.values[None, :],
                                x.grid)[0]


def fisher_information(model: ModelSpec, theta: float, x: Path, t: float) -> float:
    """Information integral at time t; raises below the invertibility floor."""
    i = x.grid.node_index(t)
    value = float(fisher_profile(model, theta, x)[i])
    if value < INFO_FLOOR:
        raise SingularInformationError(
            f"information {value:.3e} below floor {INFO_FLOOR} at t={t}"
        )
    return value


def score_head(model: ModelSpec, theta: float, X: Path, delta: float, epsilon: float) -> float:
    """Head score statistic on the learning window [0, delta]:
    engine.score_head_batch, which states the form it computes."""
    return float(score_head_batch(model, np.array([float(theta)]), X.values[None, :],
                                  X.grid, _window_end(X, delta), epsilon)[0])


def onestep_trace(model: ModelSpec, theta_pilot: float, X: Path, delta: float,
                  epsilon: float, table: Optional[ThetaTable] = None) -> EstimateTrace:
    """One-step estimates at every grid node of [delta, T].

    The engine's information (read at theta_pilot from table, the theta
    table of (model, grid, delta), built when None), tail and head stages,
    then engine.onestep_batch on copies of the profiles, which the trace
    keeps.
    Raises SingularInformationError when the information stays below the
    floor on the whole of [delta, T].
    """
    grid = X.grid
    i = _window_end(X, delta)
    th = np.array([float(theta_pilot)])
    info = _table_for(model, grid, delta, table).info(th)
    tail = score_tail_profile_batch(model, th, X.values[None, :], grid, i)
    head = score_head(model, theta_pilot, X, delta, epsilon)
    theta, clamped, info_bad = onestep_batch(model, th, tail.copy(), np.array([head]),
                                             info.copy(), slice(None))
    if info_bad[0]:
        raise SingularInformationError("information below floor on the whole window")
    return EstimateTrace(
        theta_pilot=float(theta_pilot),
        delta=float(X.times[i]),
        times=X.times[i:].copy(),
        theta_onestep=theta[0],
        fisher=info[0],
        delta_tail=tail[0],
        delta_head=head,
        clamped=clamped[0],
    )


def one_step_mle(model: ModelSpec, theta_pilot: float, X: Path, delta: float,
                 t: float, epsilon: float, table: Optional[ThetaTable] = None) -> float:
    """One-step improved estimate at time t, clamped to the closure of Theta;
    table as in onestep_trace."""
    if not model.contains_theta(theta_pilot):
        raise ConfigurationError("theta_pilot outside closure of theta_interval")
    trace = onestep_trace(model, theta_pilot, X, delta, epsilon, table)
    j = trace.node_index(t)
    if trace.fisher[j] < INFO_FLOOR:
        raise SingularInformationError(f"information below floor at t={t}")
    return float(trace.theta_onestep[j])


def full_mle(model: ModelSpec, X: Path, t: float, epsilon: float) -> float:
    """Maximizer of the discretized log-likelihood on [0, t] (comparator).

    Minimizes F = sum_k [S^2 h / 2 - S DX] / (eps^2 sigma^2) over the closure
    of theta_interval by a SCAN_POINTS scan and engine.refine_scan with the
    Fisher-scoring step sum S_theta (DX - S h) / sigma^2 over
    sum S_theta^2 h / sigma^2, which for a drift linear in theta lands on the
    minimizer in one step.  The epsilon scale does not move the argmin, so
    epsilon = 0 falls back to unit scale.  Raises FlatObjectiveError when F
    has no usable spread or its refinement does not settle.
    """
    j = X.grid.node_index(t)
    if j < 1:
        raise ConfigurationError("need at least one step before t")
    h = X.grid.h
    tk = X.times[None, :j]
    xk = X.values[None, :j]
    dx = X.values[None, 1 : j + 1] - xk
    scale = epsilon**2 if epsilon > 0 else 1.0
    inv_var = 1.0 / (scale * np.square(model.diffusion(tk, xk)))

    def f_and_step(thetas):
        th = thetas[:, None]
        shape = (thetas.size, j)
        s = broadcast_eval(model.drift(th, tk, xk), shape)
        sdot = broadcast_eval(model.drift_dtheta(th, tk, xk), shape)
        f = np.sum((0.5 * h * s - dx) * s * inv_var, axis=1)
        return f, _step(np.sum(sdot * (dx - s * h) * inv_var, axis=1),
                        np.sum(sdot**2 * h * inv_var, axis=1))

    cand = np.linspace(*model.theta_interval, SCAN_POINTS)
    obj, steps = f_and_step(cand)
    theta, flat = refine_scan(cand, obj[None, :], lambda best: steps[best],
                              lambda idx, thetas: f_and_step(thetas))
    if flat[0]:
        raise FlatObjectiveError(
            "likelihood is flat or its refinement did not settle; "
            "parameter not identifiable")
    return float(theta[0])


@dataclass(frozen=True)
class LimitQuantities:
    """What the reports read of the limit flow at theta0 (limit_quantities).

    x and info hold x_t and I(theta0, t) at the requested times, in their
    order; d2 is the pilot's limit variance D^2 on [0, delta], None for a
    pass without a window.
    """

    times: np.ndarray
    x: np.ndarray
    info: np.ndarray
    d2: Optional[float]

    def index(self, t: float) -> int:
        hit = np.flatnonzero(self.times == float(t))
        if hit.size == 0:
            raise ConfigurationError(f"limit quantities were not built at t={t}")
        return int(hit[0])


def _rk4_pass(rhs, y, t0: float, t1: float, n: int) -> np.ndarray:
    """n classical RK4 steps of y' = rhs(t, y) from (t0, y) to t1; returns the
    (n+1, len(y)) states at the nodes t0 + k h.  A non-finite state raises."""
    h = (t1 - t0) / n
    out = np.empty((n + 1, y.size))
    out[0] = y
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            t = t0 + k * h
            k1 = rhs(t, y)
            k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            out[k + 1] = y
    if not np.isfinite(out).all():
        raise IntegrationDivergedError(f"theta0 limit pass diverged on [{t0:.6g}, {t1:.6g}]")
    return out


def limit_quantities(model: ModelSpec, theta0: float, delta: Optional[float],
                     times: Sequence[float] = ()) -> LimitQuantities:
    """The limit flow x_t and the information I(theta0, t) at each of times
    and, with a window end delta, the pilot's limit variance D^2 on
    [0, delta], from one RK4 pass of the augmented system

        x' = S,   xdot' = S_x xdot + S_theta,   (log psi)' = S_x,
        c' = psi xdot,   q' = xdot^2,   I' = S_theta^2 / sigma^2,

    all at (theta0, t, x_t), from x0 and zeros at t = 0.  xdot is the
    parameter sensitivity of the flow, psi_t = exp{int_0^t S_x ds}, and c, q
    and I are running integrals.  First-order perturbation of the
    minimum-distance criterion around the limit flow gives

        D^2 = int_0^delta (sigma_s^2/psi_s^2) (c_delta - c_s)^2 ds / q_delta^2,

    whose outer integral is the composite Simpson rule on the
    LIMIT_WINDOW_STEPS nodes of [0, delta].  A quadrature carried as an ODE
    component keeps the method's fourth order (Hairer, Norsett & Wanner,
    Solving Ordinary Differential Equations I, 1993), as Simpson's rule
    does, so every quantity is fourth order in the step.  Past the window
    the pass stops at each requested time, with steps no longer than
    1/LIMIT_TAIL_STEPS of the way from delta (0 without a window) to the
    latest time.

    Raises ConfigurationError for a time before delta or not after 0,
    IntegrationDivergedError when the state turns non-finite, and
    SingularInformationError when the flow does not move with theta on the
    window.
    """
    theta = float(theta0)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    start = 0.0 if delta is None else float(delta)
    if start < 0.0 or np.any(times < start) or np.any(times <= 0.0):
        raise ConfigurationError("limit times must be positive and not precede delta")
    S, S_x, S_th, sigma = model.drift, model.drift_dx, model.drift_dtheta, model.diffusion

    def rhs(t, y):
        # y = (x, xdot, log psi, c, q, I)
        x, xdot = y[0], y[1]
        sx, sth = S_x(theta, t, x), S_th(theta, t, x)
        return np.array([S(theta, t, x), sx * xdot + sth, sx, np.exp(y[2]) * xdot,
                         xdot * xdot, (sth / sigma(t, x)) ** 2], dtype=float)

    y = np.array([model.x0, 0.0, 0.0, 0.0, 0.0, 0.0])
    d2 = None
    if delta is not None:
        n = LIMIT_WINDOW_STEPS
        nodes = _rk4_pass(rhs, y, 0.0, start, n)
        y = nodes[-1]
        x, log_psi, c, q_end = nodes[:, 0], nodes[:, 2], nodes[:, 3], y[4]
        if q_end < INFO_FLOOR:
            raise SingularInformationError("flow is parameter-insensitive on the window")
        s = np.arange(n + 1) * (start / n)
        sig = sigma(s, x)
        simpson = np.where(np.arange(n + 1) % 2 == 1, 4.0, 2.0)
        simpson[[0, -1]] = 1.0
        simpson *= start / (3.0 * n)
        d2 = float(np.sum(simpson * (sig * np.exp(-log_psi) * (c[-1] - c)) ** 2) / q_end**2)
    stops = np.unique(times)
    h_max = (stops[-1] - start) / LIMIT_TAIL_STEPS if stops.size else 0.0
    states = {}
    for b in stops:
        if b > start:
            # the 1e-9 keeps a rounding excess of a whole number from adding a step
            steps = max(1, int(np.ceil((b - start) / h_max - 1e-9)))
            y = _rk4_pass(rhs, y, start, b, steps)[-1]
            start = b
        states[b] = y
    return LimitQuantities(times=times,
                           x=np.array([states[t][0] for t in times]),
                           info=np.array([states[t][5] for t in times]),
                           d2=d2)


def mde_asymptotic_variance(model: ModelSpec, theta: float, delta: float) -> float:
    """Limit variance D^2 of the normalized pilot error on the window
    [0, delta]: the D^2 of limit_quantities, which states its formula."""
    return limit_quantities(model, theta, delta).d2


def onestep_error_limit(model: ModelSpec, theta0: float, W: Path, t: float) -> float:
    """Limit of the normalized one-step error for a given Brownian path:

        xi_t = I(theta0, t)^{-1} int_0^t (S_theta/sigma)(theta0, s, x_s) dW_s,

    with x the limit flow at theta0 and a left-point stochastic sum; the
    engine's limiting factor at the node t.  Raises SingularInformationError
    when I(theta0, t) is below the floor.
    """
    xi, info = _limit_factor(limit_weights(model, theta0, W.grid),
                             np.diff(W.values)[None, :], np.array([W.grid.node_index(t)]))
    if info[0] < INFO_FLOOR:
        raise SingularInformationError(
            f"information {info[0]:.3e} below floor {INFO_FLOOR} at t={t}")
    return float(xi[0, 0])
