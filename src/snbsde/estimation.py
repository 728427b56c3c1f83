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

The pilot, the scores, the information and the one-step estimates here are
the engine's batched stages on the one-row batch holding the observed path,
so a Monte Carlo replication and a single-path call compute the same numbers
by the same code.  The engine's per-row flags
become exceptions: a flat or unsettled pilot raises FlatObjectiveError, a
head quadrature that does not settle QuadratureError, and information below
the invertibility floor SingularInformationError.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    FlatObjectiveError,
    QuadratureError,
    SingularInformationError,
)
from .engine import (INFO_FLOOR, SCAN_POINTS, fisher_profile_batch, limit_weights,
                     onestep_batch, pilot_batch, refine_scan, score_head_batch,
                     score_tail_profile_batch, ThetaTable, _cumtrapz_rows,
                     _limit_factor, _step, _trapezoid_weights)
from .grids import Path, TimeGrid
from .models import ModelSpec, broadcast_eval, sensitivity_xdot, solve_limit_ode


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


def mde_estimate(model: ModelSpec, X: Path, delta: float) -> float:
    """Minimum-distance pilot estimate on the learning window [0, delta].

    Minimizes the trapezoidal discretization of
    int_0^delta (X_t - x_t(theta))^2 dt over the closure of theta_interval,
    by engine.pilot_batch.  Raises FlatObjectiveError when the objective has
    no usable spread or its refinement does not settle.
    """
    _window_end(X, delta)
    theta, flagged = pilot_batch(model, X.values[None, :], X.grid, delta)
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
    """Head score statistic on the learning window [0, delta].

    engine.score_head_batch, which states the stochastic-integral-free form.
    Raises QuadratureError when its state-primitive quadrature does not settle.
    """
    head, failed = score_head_batch(model, np.array([float(theta)]), X.values[None, :],
                                    X.grid, _window_end(X, delta), epsilon)
    if failed[0]:
        raise QuadratureError("state-primitive quadrature did not converge")
    return float(head[0])


def onestep_trace(model: ModelSpec, theta_pilot: float, X: Path, delta: float,
                  epsilon: float) -> EstimateTrace:
    """One-step estimates at every grid node of [delta, T].

    The engine's information (read from the theta table of (model, grid,
    delta) at theta_pilot), tail and head stages, then engine.onestep_batch
    on copies of the profiles, which the trace keeps.
    Raises SingularInformationError when the information stays below the
    floor on the whole of [delta, T].
    """
    grid = X.grid
    i = _window_end(X, delta)
    th = np.array([float(theta_pilot)])
    info = ThetaTable(model, grid, delta).info(th)
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
                 t: float, epsilon: float) -> float:
    """One-step improved estimate at time t, clamped to the closure of Theta."""
    if not model.contains_theta(theta_pilot):
        raise ConfigurationError("theta_pilot outside closure of theta_interval")
    trace = onestep_trace(model, theta_pilot, X, delta, epsilon)
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
    inv_var = 1.0 / (scale * broadcast_eval(model.diffusion(tk, xk), tk.shape) ** 2)

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
