"""Parameter estimation from one observed forward path.

Two-stage scheme.  A minimum-distance pilot estimate is formed on the learning
window [0, delta] by matching the observed path against the deterministic
limit flow in L^2.  The pilot is then improved by a single Newton-type step
built from a score statistic that needs no stochastic integral over the
learning window: the head piece on [0, delta] is rewritten through the
state-primitive of the weighted drift sensitivity

    B(theta, s, x) = S_theta(theta, s, x) / sigma(s, x)^2,
    A(theta, s, x) = int_{x0}^{x} B(theta, s, z) dz,

so that only Riemann integrals of observables appear, while the tail piece on
[delta, t] is the usual discretized score

    Delta_tail = sum_k B(theta, t_k, X_k) (X_{k+1} - X_k - S(theta, t_k, X_k) h).

The one-step estimate at time t is

    theta_onestep = theta_pilot + (Delta_tail + Delta_head) / I(theta_pilot, t),

with I the information integral of S_theta^2/sigma^2 along the limit flow at
the pilot value, clamped to the closure of the admissible interval.
"""

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ConfigurationError,
    FlatObjectiveError,
    QuadratureError,
    SingularInformationError,
)
from .engine import (INFO_FLOOR, REFINE_FACTOR, SCAN_POINTS, pilot_batch,
                     score_head_batch, _cumtrapz_rows, _trapezoid_weights)
from .grids import Path, TimeGrid
from .models import ModelSpec, broadcast_eval, sensitivity_xdot, solve_limit_ode

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class EstimationWindow:
    """Learning window length delta plus the evaluation times of interest."""

    delta: float
    t_eval: Tuple[float, ...] = ()

    def __post_init__(self):
        if self.delta <= 0:
            raise ConfigurationError("delta must be positive")
        object.__setattr__(self, "t_eval", tuple(float(t) for t in self.t_eval))
        for t in self.t_eval:
            if t < self.delta:
                raise ConfigurationError(f"evaluation time {t} precedes the window end {self.delta}")


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

    def rows(self):
        """Rows (t, theta_onestep, fisher, delta_tail) for serialization."""
        for k in range(self.times.size):
            yield (
                float(self.times[k]),
                float(self.theta_onestep[k]),
                float(self.fisher[k]),
                float(self.delta_tail[k]),
            )


def scan_then_golden(objective, lo: float, hi: float, batch_objective=None,
                     n_scan: int = SCAN_POINTS, tol: Optional[float] = None) -> float:
    """Minimize a 1-d objective over [lo, hi] without derivatives.

    Coarse grid scan (n_scan points) brackets the minimum, then golden-section
    refinement shrinks the bracket to tol (default (hi-lo)*REFINE_FACTOR).  A
    flat scan raises FlatObjectiveError since the minimizer is then
    meaningless.  full_mle uses it; the pilot has its own derivative-based
    refinement in engine.pilot_batch, and the tests use this routine as an
    independent check on it.
    """
    if tol is None:
        tol = (hi - lo) * REFINE_FACTOR
    grid = np.linspace(lo, hi, n_scan)
    if batch_objective is not None:
        vals = np.asarray(batch_objective(grid), dtype=float)
    else:
        vals = np.array([objective(g) for g in grid], dtype=float)
    if not np.all(np.isfinite(vals)):
        raise FlatObjectiveError("objective is non-finite on the candidate grid")
    spread = float(vals.max() - vals.min())
    if spread <= 1e-12 * max(1.0, abs(float(vals.max()))):
        raise FlatObjectiveError("objective is flat on the window; parameter not identifiable")
    i = int(np.argmin(vals))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, n_scan - 1)]
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = objective(c)
    fd = objective(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = objective(d)
    return 0.5 * (a + b)


def mde_estimate(model: ModelSpec, X: Path, delta: float) -> float:
    """Minimum-distance pilot estimate on the learning window [0, delta].

    Minimizes the trapezoidal discretization of
    int_0^delta (X_t - x_t(theta))^2 dt over the closure of theta_interval,
    by engine.pilot_batch on the one-row batch holding X.  Raises
    FlatObjectiveError when the objective has no usable spread or its
    refinement does not settle.
    """
    if X.grid.node_index(delta) < 1:
        raise ConfigurationError("learning window too small for the grid")
    theta, flagged = pilot_batch(model, X.values[None, :], X.grid, delta)
    if flagged[0]:
        raise FlatObjectiveError(
            "window objective is flat or its refinement did not settle; "
            "parameter not identifiable")
    return float(theta[0])


def fisher_profile(model: ModelSpec, theta: float, x: Path) -> np.ndarray:
    """Running information integral int_0^t S_theta^2/sigma^2 ds along x."""
    times = x.times
    sdot = broadcast_eval(model.drift_dtheta(theta, times, x.values), times.shape)
    sig = broadcast_eval(model.diffusion(times, x.values), times.shape)
    return _cumtrapz_rows(sdot**2 / sig**2, x.grid.h)


def fisher_information(model: ModelSpec, theta: float, x: Path, t: float) -> float:
    """Information integral at time t; raises below the invertibility floor."""
    i = x.grid.node_index(t)
    value = float(fisher_profile(model, theta, x)[i])
    if value < INFO_FLOOR:
        raise SingularInformationError(
            f"information {value:.3e} below floor {INFO_FLOOR} at t={t}"
        )
    return value


def score_tail_profile(model: ModelSpec, theta: float, X: Path, delta: float) -> np.ndarray:
    """Running tail score over the nodes of [delta, T]; first entry is 0.

    Left-point (Ito) discretization of
    int_delta^t (S_theta/sigma^2)(theta, s, X_s) [dX_s - S(theta, s, X_s) ds].
    """
    i = X.grid.node_index(delta)
    times = X.times
    h = X.grid.h
    tk = times[i:-1]
    xk = X.values[i:-1]
    b = broadcast_eval(model.drift_dtheta(theta, tk, xk), tk.shape) / \
        broadcast_eval(model.diffusion(tk, xk), tk.shape) ** 2
    incr = b * (X.values[i + 1:] - xk - broadcast_eval(model.drift(theta, tk, xk), tk.shape) * h)
    out = np.zeros(X.values.size - i)
    np.cumsum(incr, out=out[1:])
    return out


def score_tail(model: ModelSpec, theta: float, X: Path, delta: float, t: float) -> float:
    """Tail score statistic on [delta, t]."""
    i = X.grid.node_index(delta)
    j = X.grid.node_index(t)
    if j < i:
        raise ConfigurationError("t must not precede delta")
    return float(score_tail_profile(model, theta, X, delta)[j - i])


def score_head(model: ModelSpec, theta: float, X: Path, delta: float, epsilon: float) -> float:
    """Head score statistic on the learning window [0, delta].

    engine.score_head_batch (which states the stochastic-integral-free form)
    on the one-row batch holding X.  Raises QuadratureError when its
    state-primitive quadrature does not settle.
    """
    i = X.grid.node_index(delta)
    if i < 1:
        raise ConfigurationError("learning window too small for the grid")
    head, failed = score_head_batch(model, np.array([float(theta)]), X.values[None, :],
                                    X.grid, i, epsilon)
    if failed[0]:
        raise QuadratureError("state-primitive quadrature did not converge")
    return float(head[0])


def onestep_trace(model: ModelSpec, theta_pilot: float, X: Path, delta: float,
                  epsilon: float) -> EstimateTrace:
    """One-step estimates at every grid node of [delta, T].

    The tail score and the information integral are accumulated once, so the
    whole profile costs the same as a single evaluation at t = T.
    """
    i = X.grid.node_index(delta)
    x_pilot = solve_limit_ode(model, theta_pilot, X.grid)
    info = fisher_profile(model, theta_pilot, x_pilot)[i:]
    tail = score_tail_profile(model, theta_pilot, X, delta)
    head = score_head(model, theta_pilot, X, delta, epsilon)
    bad = info < INFO_FLOOR
    if np.all(bad):
        raise SingularInformationError("information below floor on the whole window")
    safe_info = np.where(bad, np.inf, info)
    raw = theta_pilot + (tail + head) / safe_info
    lo, hi = model.theta_interval
    theta = np.clip(raw, lo, hi)
    clamped = (raw < lo) | (raw > hi) | bad
    return EstimateTrace(
        theta_pilot=float(theta_pilot),
        delta=float(X.times[i]),
        times=X.times[i:].copy(),
        theta_onestep=theta,
        fisher=info,
        delta_tail=tail,
        delta_head=float(head),
        clamped=clamped,
    )


def one_step_mle(model: ModelSpec, theta_pilot: float, X: Path, delta: float,
                 t: float, epsilon: float) -> float:
    """One-step improved estimate at time t, clamped to the closure of Theta."""
    if not model.contains_theta(theta_pilot):
        raise ConfigurationError("theta_pilot outside closure of theta_interval")
    trace = onestep_trace(model, theta_pilot, X, delta, epsilon)
    j = X.grid.node_index(t) - X.grid.node_index(delta)
    if j < 0:
        raise ConfigurationError("t must not precede delta")
    if trace.fisher[j] < INFO_FLOOR:
        raise SingularInformationError(f"information below floor at t={t}")
    return float(trace.theta_onestep[j])


def full_mle(model: ModelSpec, X: Path, t: float, epsilon: float) -> float:
    """Maximizer of the discretized log-likelihood on [0, t] (comparator).

    Maximizes sum_k [S/(eps^2 sigma^2)] DX - sum_k [S^2/(2 eps^2 sigma^2)] h
    by the same scan-and-refine search as the pilot.  The epsilon scale does
    not move the argmax, so epsilon = 0 falls back to unit scale.
    """
    j = X.grid.node_index(t)
    if j < 1:
        raise ConfigurationError("need at least one step before t")
    h = X.grid.h
    tk = X.times[:j]
    xk = X.values[:j]
    dx = X.values[1 : j + 1] - xk
    sig2 = broadcast_eval(model.diffusion(tk, xk), tk.shape) ** 2
    scale = epsilon**2 if epsilon > 0 else 1.0

    def neg_loglik(theta):
        s = broadcast_eval(model.drift(theta, tk, xk), tk.shape)
        return float(-np.sum(s * dx / (scale * sig2)) + np.sum(s**2 * h / (2.0 * scale * sig2)))

    def batch(thetas):
        s = model.drift(np.asarray(thetas)[None, :], tk[:, None], xk[:, None])
        s = broadcast_eval(s, (tk.size, np.asarray(thetas).size))
        return -np.sum(s * (dx / (scale * sig2))[:, None], axis=0) + \
            np.sum(s**2 * (h / (2.0 * scale * sig2))[:, None], axis=0)

    lo, hi = model.theta_interval
    return scan_then_golden(neg_loglik, lo, hi, batch_objective=batch)


def mde_asymptotic_variance(model: ModelSpec, theta: float, delta: float,
                            n_steps: int = 2000) -> float:
    """Limit variance of the normalized pilot error on the window [0, delta].

    First-order perturbation of the minimum-distance criterion around the
    limit flow gives, with psi_t = exp{int_0^t S_x ds} and xdot the parameter
    sensitivity of the flow,

        D^2 = int_0^delta (sigma_s^2/psi_s^2) (int_s^delta psi_v xdot_v dv)^2 ds
              / (int_0^delta xdot_v^2 dv)^2.
    """
    wgrid = TimeGrid(0.0, delta, n_steps)
    x = solve_limit_ode(model, theta, wgrid)
    xdot = sensitivity_xdot(model, theta, wgrid).values
    times = wgrid.times
    g = broadcast_eval(model.drift_dx(theta, times, x.values), times.shape)
    psi = np.exp(_cumtrapz_rows(g, wgrid.h))
    sig = broadcast_eval(model.diffusion(times, x.values), times.shape)
    c = _cumtrapz_rows(psi * xdot, wgrid.h)
    tail_integral = c[-1] - c
    w = _trapezoid_weights(times.size, wgrid.h)
    numerator = float(np.sum(w * (sig**2 / psi**2) * tail_integral**2))
    denominator = float(np.sum(w * xdot**2)) ** 2
    if denominator < INFO_FLOOR**2:
        raise SingularInformationError("flow is parameter-insensitive on the window")
    return numerator / denominator


def onestep_error_limit(model: ModelSpec, theta0: float, W: Path, t: float) -> float:
    """Limit of the normalized one-step error for a given Brownian path:

        xi_t = I(theta0, t)^{-1} int_0^t (S_theta/sigma)(theta0, s, x_s) dW_s,

    with x the limit flow at theta0 and a left-point stochastic sum.
    """
    x = solve_limit_ode(model, theta0, W.grid)
    info = fisher_information(model, theta0, x, t)
    j = W.grid.node_index(t)
    tk = W.times[:j]
    xk = x.values[:j]
    weight = broadcast_eval(model.drift_dtheta(theta0, tk, xk), tk.shape) / \
        broadcast_eval(model.diffusion(tk, xk), tk.shape)
    dw = W.values[1 : j + 1] - W.values[:j]
    return float(np.sum(weight * dw) / info)
