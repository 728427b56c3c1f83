"""Forward model specification and deterministic/stochastic integrators.

The forward dynamics are

    dX_t = S(theta, t, X_t) dt + epsilon * sigma(t, X_t) dW_t,   X_0 = x0,

on [0, T], with theta an unknown scalar in a bounded open interval.  As
epsilon -> 0 the paths concentrate on the deterministic flow

    dx_t/dt = S(theta, t, x_t),   x_0 = x0.

All model callables must broadcast over numpy arrays in every argument; the
package evaluates them on scalars, on vectors of parameter candidates, and on
whole path arrays.  A result may have any shape that broadcasts against the
arguments, and a constant coefficient returns a scalar (see ModelSpec).
"""

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import (
    ConfigurationError,
    IntegrationDivergedError,
    ModelValidationError,
    SimulationDivergedError,
)
from .grids import NoiseSource, Path, TimeGrid

# Simulated paths beyond this magnitude abort the replication.
BLOWUP_GUARD = 1e12
# Elements (steps x rows) per Euler-Maruyama tile: 512 KB of float64 for
# the tile's increments and as much for its states.
EULER_TILE = 65_536


def broadcast_eval(value, shape):
    """Coerce a model-callable result to float64 with the expected shape.

    A coefficient may return any shape that broadcasts against its
    arguments, and a constant term should return a scalar; callers combine
    such small results first and broadcast once, where they meet a path
    sum.  A result that already has the shape is returned as it is, a
    smaller one as a read-only view.
    """
    value = np.asarray(value, dtype=float)
    return value if value.shape == shape else np.broadcast_to(value, shape)


@dataclass
class ModelSpec:
    """Coefficients of the forward dynamics together with their derivatives.

    Each callable returns any shape that broadcasts against its arguments; a
    term constant in an argument should not broadcast against it, so a
    constant sigma returns the scalar sigma, not an array of the size of x.
    Callers never write into a returned value, which may alias an argument.

    Parameters
    ----------
    drift : callable (theta, t, x) -> S
    drift_dtheta : callable, derivative of S in theta
    drift_dx : callable, derivative of S in x
    drift_dtheta_dx : callable, mixed derivative of S in theta and x
    diffusion : callable (t, x) -> sigma, with sigma(t,x)^2 >= kappa > 0
    diffusion_dx : callable, derivative of sigma in x
    theta_interval : open interval (alpha, beta) of admissible theta
    x0 : initial state
    horizon : terminal time T
    kappa : declared uniform lower bound on sigma^2
    growth_const : declared Lipschitz/linear-growth constant for S and sigma
    """

    drift: Callable
    drift_dtheta: Callable
    drift_dx: Callable
    drift_dtheta_dx: Callable
    diffusion: Callable
    diffusion_dx: Callable
    theta_interval: Tuple[float, float]
    x0: float
    horizon: float
    kappa: float
    growth_const: float

    def __post_init__(self):
        a, b = self.theta_interval
        if not a < b:
            raise ConfigurationError("theta_interval must be a nonempty open interval")
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        if self.kappa <= 0:
            raise ConfigurationError("kappa must be positive")

    def contains_theta(self, theta: float) -> bool:
        a, b = self.theta_interval
        return a <= theta <= b


def _central_diff(f, u, step):
    return (f(u + step) - f(u - step)) / (2.0 * step)


def validate_model(model: ModelSpec, n_samples: int = 5, rel_tol: float = 1e-5) -> None:
    """Spot-check a model's declared derivatives and bounds.

    Derivative fields are compared against central finite differences of their
    parents on a lattice of (theta, t, x) samples; the diffusion floor kappa
    and the declared Lipschitz/growth constant are checked on the same lattice.
    Raises ModelValidationError on the first violation.
    """
    a, b = model.theta_interval
    thetas = np.linspace(a + 0.05 * (b - a), b - 0.05 * (b - a), n_samples)
    ts = np.linspace(0.0, model.horizon, n_samples)
    span = 2.0 * (1.0 + abs(model.x0))
    xs = np.linspace(model.x0 - span, model.x0 + span, n_samples)

    def check(name, got, want):
        tol = rel_tol * max(1.0, abs(want), abs(got))
        if not np.isfinite(got) or abs(got - want) > tol:
            raise ModelValidationError(
                f"{name} disagrees with finite difference: declared {got}, measured {want}"
            )

    h_th = 1e-5 * max(1.0, b - a)
    for th in thetas:
        for t in ts:
            for x in xs:
                s2 = float(model.diffusion(t, x)) ** 2
                if s2 < model.kappa * (1.0 - 1e-12):
                    raise ModelValidationError(
                        f"diffusion^2 = {s2} below declared floor kappa = {model.kappa}"
                    )
                L = model.growth_const
                if abs(float(model.drift(th, t, x))) > L * (1.0 + abs(x)) * (1.0 + 1e-9):
                    raise ModelValidationError("drift violates declared growth bound")
                if abs(float(model.diffusion(t, x))) > L * (1.0 + abs(x)) * (1.0 + 1e-9):
                    raise ModelValidationError("diffusion violates declared growth bound")
                h_x = 1e-5 * max(1.0, abs(x))
                check(
                    "drift_dtheta",
                    float(model.drift_dtheta(th, t, x)),
                    _central_diff(lambda u: float(model.drift(u, t, x)), th, h_th),
                )
                check(
                    "drift_dx",
                    float(model.drift_dx(th, t, x)),
                    _central_diff(lambda u: float(model.drift(th, t, u)), x, h_x),
                )
                check(
                    "drift_dtheta_dx",
                    float(model.drift_dtheta_dx(th, t, x)),
                    _central_diff(lambda u: float(model.drift_dtheta(th, t, u)), x, h_x),
                )
                check(
                    "diffusion_dx",
                    float(model.diffusion_dx(t, x)),
                    _central_diff(lambda u: float(model.diffusion(t, u)), x, h_x),
                )
    # Lipschitz spot check in x on sample pairs.
    for th in thetas:
        for t in ts:
            for x1, x2 in zip(xs[:-1], xs[1:]):
                gap = abs(float(model.drift(th, t, x2)) - float(model.drift(th, t, x1)))
                if gap > model.growth_const * abs(x2 - x1) * (1.0 + 1e-9) + 1e-12:
                    raise ModelValidationError("drift violates declared Lipschitz bound in x")


def _rk4_march(model: ModelSpec, theta, grid: TimeGrid, sensitivity: bool, x_start=None):
    """Lockstep RK4 of the limit ODE from x_start (x0 by default) at the
    start of the grid, optionally with its theta-derivative.

    With sensitivity, the same four stages are applied to
    xdot' = S_x(theta, t, x) xdot + S_theta(theta, t, x), xdot_0 = 0, which is
    the exact derivative in theta of the discrete RK4 flow.  A lane that
    diverges runs on without touching the others.  Returns (x, xdot, finite):
    xdot is None without sensitivity, and finite, shaped (n,) + theta.shape,
    marks the nodes after the start where x (and xdot) are finite.
    """
    theta = np.asarray(theta, dtype=float)
    times = grid.times
    h = grid.h
    x = np.broadcast_to(np.asarray(model.x0 if x_start is None else x_start, dtype=float),
                        theta.shape).copy()
    out = np.empty((grid.n_steps + 1,) + theta.shape)
    out[0] = x
    S = model.drift
    if sensitivity:
        v = np.zeros(theta.shape)
        dout = np.empty(out.shape)
        dout[0] = v
        S_x = model.drift_dx
        S_th = model.drift_dtheta
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(grid.n_steps):
            t = times[k]
            tm = t + 0.5 * h
            k1 = S(theta, t, x)
            x2 = x + 0.5 * h * k1
            k2 = S(theta, tm, x2)
            x3 = x + 0.5 * h * k2
            k3 = S(theta, tm, x3)
            x4 = x + h * k3
            k4 = S(theta, t + h, x4)
            if sensitivity:
                d1 = S_x(theta, t, x) * v + S_th(theta, t, x)
                v2 = v + 0.5 * h * d1
                d2 = S_x(theta, tm, x2) * v2 + S_th(theta, tm, x2)
                v3 = v + 0.5 * h * d2
                d3 = S_x(theta, tm, x3) * v3 + S_th(theta, tm, x3)
                v4 = v + h * d3
                d4 = S_x(theta, t + h, x4) * v4 + S_th(theta, t + h, x4)
                v = v + (h / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
                dout[k + 1] = v
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            out[k + 1] = x
    finite = np.isfinite(out[1:])
    if not sensitivity:
        return out, None, finite
    finite &= np.isfinite(dout[1:])
    return out, dout, finite


def _rk4(model: ModelSpec, theta, grid: TimeGrid, sensitivity: bool, x_start=None):
    """_rk4_march, raising IntegrationDivergedError at the first non-finite node."""
    out, dout, finite = _rk4_march(model, theta, grid, sensitivity, x_start)
    if not finite.all():
        node = 1 + int(np.argmin(finite.reshape(grid.n_steps, -1).all(axis=1)))
        raise IntegrationDivergedError(
            f"limit ODE diverged at node {node} (t={grid.times[node]:.6g})",
            node_index=node,
        )
    return (out, dout) if sensitivity else out


def _rk4_values(model: ModelSpec, theta, grid: TimeGrid, x_start=None):
    """RK4 solution values of the limit ODE; theta may be a scalar or a vector.

    Returns an array of shape (n+1,) for scalar theta, or (n+1, k) when theta
    is a vector of k parameter candidates advanced in lockstep.
    """
    return _rk4(model, theta, grid, False, x_start)


def rk4_sensitivity(model: ModelSpec, theta, grid: TimeGrid, mask: bool = False):
    """RK4 flow and its exact theta-derivative, (x, xdot), each shaped as
    _rk4_values returns them.  With mask, a lane that diverges raises
    nothing: the call returns (x, xdot, ok), ok shaped as theta and true
    where the lane stayed finite at every node."""
    if not mask:
        return _rk4(model, theta, grid, True)
    x, xdot, finite = _rk4_march(model, theta, grid, True)
    return x, xdot, finite.all(axis=0)


def solve_limit_ode(model: ModelSpec, theta: float, grid: TimeGrid) -> Path:
    """Solve dx/dt = S(theta, t, x), x(t_start) = x0 with fixed-step RK4."""
    values = _rk4_values(model, float(theta), grid)
    return Path(grid, values)


def _euler_maruyama(model: ModelSpec, theta, epsilon: float, grid: TimeGrid,
                    dW: np.ndarray):
    """Lockstep Euler-Maruyama paths X (M, n+1) from x0 for increments dW (M, n).

    Each tile of EULER_TILE elements of dW is stepped time-major in small
    buffers and written back transposed into X, so the full-size arrays are
    only read and written row-major.  A step is x + (S h) + (epsilon sigma)
    dw in that order, with S h and epsilon sigma formed on the coefficients'
    own shapes: a constant model pays three row-sized operations per step,
    and an array-valued coefficient is scaled into the step's preallocated
    buffers.
    Rows are independent, so a row that blows up runs on without touching
    the others.  Returns (X, first), first the first node of each row beyond
    the blow-up guard or non-finite (n+1 if none); from that node on the row
    is frozen at x0.
    """
    m, n = dW.shape
    h = grid.h
    times = grid.times
    X = np.empty((m, n + 1))
    first = np.full(m, n + 1)
    tile = max(1, min(n, EULER_TILE // max(m, 1)))
    dw = np.empty((tile, m))
    xs = np.empty((tile + 1, m))
    xs[0] = model.x0
    noise = np.empty(m)
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, n, tile):
            steps = min(tile, n - k0)
            np.copyto(dw[:steps], dW[:, k0: k0 + steps].T)
            for j in range(steps):
                t = times[k0 + j]
                x, nxt = xs[j], xs[j + 1]
                s = model.drift(theta, t, x)
                sig = model.diffusion(t, x)
                np.add(x, np.multiply(s, h, out=nxt) if np.ndim(s) else s * h, out=nxt)
                eps_sig = np.multiply(sig, epsilon, out=noise) if np.ndim(sig) else sig * epsilon
                nxt += np.multiply(eps_sig, dw[j], out=noise)
            stepped = xs[1: steps + 1]
            ok = (stepped <= BLOWUP_GUARD) & (stepped >= -BLOWUP_GUARD)
            hit = ~ok.all(axis=0) & (first > n)
            first[hit] = k0 + 1 + np.argmin(ok[:, hit], axis=0)
            X[:, k0: k0 + steps + 1] = xs[: steps + 1].T
            xs[0] = xs[steps]
    for r in np.flatnonzero(first <= n):
        X[r, first[r]:] = model.x0
    return X, first


def simulate_forward(
    model: ModelSpec,
    theta: float,
    epsilon: float,
    grid: TimeGrid,
    noise: NoiseSource,
) -> Tuple[Path, Path]:
    """Euler-Maruyama path of the forward SDE plus its driving Brownian path.

    Returns (X, W) on the same grid, with W(t_start) = 0.  Any |X| beyond the
    blow-up guard aborts the replication with SimulationDivergedError.
    """
    if epsilon < 0:
        raise ConfigurationError("epsilon must be nonnegative")
    if not model.contains_theta(theta):
        raise ConfigurationError(f"theta={theta} outside closure of theta_interval")
    dw = noise.increments(grid.n_steps, grid.h)
    X, first = _euler_maruyama(model, theta, epsilon, grid, dw[None, :])
    if first[0] <= grid.n_steps:
        raise SimulationDivergedError(f"simulated path exceeded guard at node {first[0]}",
                                      node_index=int(first[0]))
    return Path(grid, X[0]), Path(grid, np.concatenate(([0.0], np.cumsum(dw))))

