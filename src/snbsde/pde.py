"""Grid backend for the semilinear value-function PDE

    u_t + S(theta, t, x) u_x + (eps^2 sigma^2 / 2) u_xx
        = -f(t, x, u, eps sigma u_x),        u(T, x) = Phi(x),

solved backward in time by a semi-Lagrangian Crank-Nicolson scheme (Falcone
and Ferretti, Semi-Lagrangian Approximation Schemes for Linear and
Hamilton-Jacobi Equations, SIAM 2014).  One step from t1 back to
t0 = t1 - dt

* traces the departure point x_d = x + dt S(theta, t0 + dt/2, x + (dt/2) S(theta, t0, x))
  along the characteristic (midpoint rule);
* interpolates g = u + (dt/2) ((eps^2 sigma^2 / 2) u_xx + f) at x_d with the
  four-point cubic through the nearest nodes;
* solves (I - (dt/4) eps^2 sigma^2 D2) u0 = g(x_d) + (dt/2) f(t0, .), with the
  driver at t0 taken by Heun's predictor-corrector.

Transport follows the characteristic instead of a difference stencil and the
diffusion is implicit, so the step is unconditionally stable and adds no
first-order numerical viscosity: one step per stored row at any eps.  Boundary rows use a linear extension (u_xx = 0,
one-sided u_x, departure points beyond the edge extrapolated linearly), which
trades boundary-layer accuracy for simplicity; callers are expected to pick
rectangles wide enough that the region of interest stays away from the edges.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    EvaluationError,
    PdeDivergenceError,
)
from .grids import TimeGrid
from .models import ModelSpec, broadcast_eval, _rk4_values
from .value_functions import characteristics_limit_value

# Stored time rows (one step each) when the grid leaves n_t unset.
DEFAULT_ROWS = 200


@dataclass(frozen=True)
class PdeGrid:
    """Space-time rectangle [0, T] x [x_min, x_max] with uniform nodes.

    n_t counts stored time rows, one scheme step each; n_t = None stores
    DEFAULT_ROWS.
    """

    x_min: float
    x_max: float
    n_x: int
    horizon: float
    n_t: Optional[int] = None

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise ConfigurationError("PdeGrid requires x_max > x_min")
        if self.n_x < 8:
            raise ConfigurationError("PdeGrid requires at least 8 space intervals")
        if self.horizon <= 0:
            raise ConfigurationError("PdeGrid requires a positive horizon")
        if self.n_t is not None and self.n_t < 1:
            raise ConfigurationError("n_t must be at least 1 when given")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_x

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x + 1)


def default_domain(model: ModelSpec, n_samples: int = 33) -> Tuple[float, float]:
    """Default rectangle [x0 - 6 L, x0 + 6 L] with L the largest limit-flow
    excursion over the closure of theta_interval, plus one unit of margin."""
    a, b = model.theta_interval
    flows = _rk4_values(model, np.linspace(a, b, n_samples), TimeGrid(0.0, model.horizon, 200))
    lam = float(np.max(np.abs(flows - model.x0))) + 1.0
    return model.x0 - 6.0 * lam, model.x0 + 6.0 * lam


def _slope(u: np.ndarray, dx: float) -> np.ndarray:
    """u_x along the last axis: central in the interior, one-sided at the edges."""
    ux = np.empty_like(u)
    ux[..., 1:-1] = (u[..., 2:] - u[..., :-2]) / (2.0 * dx)
    ux[..., 0] = (u[..., 1] - u[..., 0]) / dx
    ux[..., -1] = (u[..., -1] - u[..., -2]) / dx
    return ux


@dataclass
class PdeSolution:
    """Stored rows of the backward solution; row j holds u(j * horizon / n_rows, .)."""

    grid: PdeGrid
    values: np.ndarray

    # perfbench/tracing.py still reads these two: the march takes one step
    # per stored row and upwinds no node
    substeps = 1
    upwind_fraction = 0.0

    @cached_property
    def x_derivative_values(self) -> np.ndarray:
        """Nodal u_x rows: central in the interior, one-sided at the edges."""
        return _slope(self.values, self.grid.dx)


def _cubic_at(g: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Node data g (lanes, n + 1) at fractional node positions pos (same shape).

    Four-point cubic interpolation (Newton form on nodes j, j + 1, j - 1,
    j + 2) inside [0, n], with ghost nodes that extend g linearly past each
    edge; linear extrapolation beyond the edges.  A position on a node returns
    that node's value exactly, and a non-finite position a non-finite value.
    """
    lanes, n = g.shape[0], g.shape[1] - 1
    padded = np.empty((lanes, n + 4))
    padded[:, 1:-2] = g
    slope_lo = g[:, 1] - g[:, 0]
    slope_hi = g[:, -1] - g[:, -2]
    padded[:, 0] = g[:, 0] - slope_lo
    padded[:, -2] = g[:, -1] + slope_hi
    padded[:, -1] = g[:, -1] + 2.0 * slope_hi
    inside = np.fmin(np.fmax(pos, 0.0), n)
    j = inside.astype(np.intp)
    frac = inside - j
    s = pos - j
    j += (n + 4) * np.arange(lanes)[:, None]
    flat = padded.ravel()
    gm, g0, g1, g2 = flat.take(j), flat.take(j + 1), flat.take(j + 2), flat.take(j + 3)
    d1 = g1 - g0
    half_d2 = 0.5 * (d1 - (g0 - gm))
    sixth_d3 = 0.5 * ((g2 - gm) / 3.0 - d1)
    return g0 + s * d1 + (frac * (frac - 1.0)) * (half_d2 + (frac + 1.0) * sixth_d3)


def _march(model: ModelSpec, driver: Callable, terminal: Callable,
           thetas: np.ndarray, epsilon: float, grid: PdeGrid) -> np.ndarray:
    """Semi-Lagrangian Crank-Nicolson march of one lane per theta, in lockstep.

    Returns the stored rows, shaped (lanes, n_rows + 1, n_x + 1).  Lanes share
    every theta-free quantity, above all the diffusion matrix: one tridiagonal
    factorization per step serves a right-hand side per lane.  Every other
    operation is elementwise, so a lane's rows do not depend on which lanes
    march with it.

    The driver at t0 is Heun's: the predictor is the explicit Euler step
    g(x_d) + (dt/2) (diffusion + f)(t1, x), the corrector the Crank-Nicolson
    solve with f(t0, x, predictor).
    """
    # scipy.linalg costs about 0.1 s to import; only a solve pays it
    from scipy.linalg.lapack import dgttrf, dgttrs

    xs = grid.xs
    dx = grid.dx
    n_rows = DEFAULT_ROWS if grid.n_t is None else grid.n_t
    dt = grid.horizon / n_rows
    half = 0.5 * dt
    times = np.linspace(0.0, grid.horizon, n_rows + 1)
    theta = np.asarray(thetas, dtype=float)[:, None]
    shape = (theta.shape[0], xs.size)
    x_lanes = np.broadcast_to(xs, shape)
    nodes = np.arange(xs.size, dtype=float)

    u = broadcast_eval(terminal(xs), xs.shape)
    if not np.all(np.isfinite(u)):
        raise EvaluationError("terminal function returned a non-finite value")
    u = np.broadcast_to(u, shape).copy()
    rows = np.empty((shape[0], n_rows + 1, xs.size))
    rows[:, n_rows] = u

    def noise(t):
        """eps sigma at the nodes, and r = (dt/4) (eps sigma / dx)^2 inside."""
        eps_sig = broadcast_eval(np.multiply(epsilon, model.diffusion(t, xs)), xs.shape)
        return eps_sig, (0.25 * dt / dx**2) * eps_sig[1:-1] ** 2

    def f_at(t, v, eps_sig):
        return broadcast_eval(driver(t, x_lanes, v, eps_sig * _slope(v, dx)), shape)

    # I - (dt/4) eps^2 sigma^2 D2, with identity boundary rows
    diag = np.ones(xs.size)
    upper = np.zeros(xs.size - 1)
    lower = np.zeros(xs.size - 1)
    eps_sig1, r1 = noise(times[-1])
    f1 = f_at(times[-1], u, eps_sig1)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n_rows - 1, -1, -1):
            t0 = times[j]
            # explicit half at t1: (dt/2) ((eps sigma)^2 / 2 u_xx + f)
            explicit = half * f1
            explicit[:, 1:-1] += r1 * (u[:, 2:] + u[:, :-2] - 2.0 * u[:, 1:-1])
            s0 = np.asarray(model.drift(theta, t0, x_lanes), dtype=float)
            s_mid = model.drift(theta, t0 + half, x_lanes + half * s0)
            g_dep = _cubic_at(u + explicit, nodes + (dt / dx) * broadcast_eval(s_mid, shape))
            eps_sig0, r0 = noise(t0)
            diag[1:-1] = 1.0 + 2.0 * r0
            upper[1:] = -r0
            lower[:-1] = -r0
            lu = dgttrf(lower, diag, upper)[:5]
            rhs = g_dep + half * f_at(t0, g_dep + explicit, eps_sig0)
            u = dgttrs(*lu, rhs.T)[0].T
            if not np.all(np.isfinite(u)):
                raise PdeDivergenceError(f"solution became non-finite near t={t0:.6g}")
            rows[:, j] = u
            eps_sig1, r1 = eps_sig0, r0
            f1 = f_at(t0, u, eps_sig0)
    return rows


def solve_semilinear_pde(model: ModelSpec, driver: Callable, terminal: Callable,
                         theta: float, epsilon: float, grid: PdeGrid) -> PdeSolution:
    """March the scheme backward from the terminal row at one theta.

    driver has signature f(t, x, y, z); terminal is Phi.  Returns the stored
    solution rows.
    """
    rows = _march(model, driver, terminal, np.array([float(theta)]), epsilon, grid)
    return PdeSolution(grid=grid, values=rows[0])


def _cell(grid: PdeGrid, n_rows: int, t, x):
    """Lower cell corner and fractions of (t, x) among the stored rows."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    t, x = np.broadcast_arrays(t, x)
    slack_t = 1e-12 * max(1.0, grid.horizon)
    slack_x = 1e-12 * max(1.0, abs(grid.x_min), abs(grid.x_max))
    if np.any(t < -slack_t) or np.any(t > grid.horizon + slack_t):
        raise DomainError("time outside [0, horizon]")
    if np.any(x < grid.x_min - slack_x) or np.any(x > grid.x_max + slack_x):
        raise DomainError("state outside the solver rectangle")
    rt = np.clip(t / (grid.horizon / n_rows), 0.0, n_rows)
    rx = np.clip((x - grid.x_min) / grid.dx, 0.0, grid.n_x)
    i0 = np.minimum(rt.astype(int), n_rows - 1)
    j0 = np.minimum(rx.astype(int), grid.n_x - 1)
    return i0, j0, rt - i0, rx - j0


def _scalar(v: np.ndarray):
    return v if v.shape else float(v)


def _bilinear(rows: np.ndarray, cell):
    i0, j0, ft, fx = cell
    v00 = rows[i0, j0]
    v01 = rows[i0, j0 + 1]
    v10 = rows[i0 + 1, j0]
    v11 = rows[i0 + 1, j0 + 1]
    out = (1 - ft) * ((1 - fx) * v00 + fx * v01) + ft * ((1 - fx) * v10 + fx * v11)
    return out if out.shape else float(out)


def eval_solution(sol: PdeSolution, t, x):
    """Bilinear value and space derivative of a stored solution at (t, x)."""
    cell = _cell(sol.grid, sol.values.shape[0] - 1, t, x)
    return _bilinear(sol.values, cell), _bilinear(sol.x_derivative_values, cell)


class PdeValueFunction:
    """Value function backed by a three-solve bundle at theta_c - d, theta_c, theta_c + d.

    Values at nearby theta come from second-order Taylor expansion in
    (theta - theta_c); the bundle spacing d therefore bounds the admissible
    evaluation offsets (intended use: offsets of the same order as d or the
    estimator error, both small).
    """

    def __init__(self, model: ModelSpec, driver: Callable, terminal: Callable,
                 theta_center: float, minus: PdeSolution, center: PdeSolution,
                 plus: PdeSolution, dtheta: float):
        self.model = model
        self.driver = driver
        self.terminal = terminal
        self.theta_center = float(theta_center)
        self._solutions = (minus, center, plus)
        self.dtheta = float(dtheta)

    # -- Taylor pieces -----------------------------------------------------

    def _taylor(self, t, x, theta, field):
        """Taylor value, first and second theta-differences and offset of one
        field, u or ux, read from the three solutions at one shared cell."""
        center = self._solutions[1]
        cell = _cell(center.grid, center.values.shape[0] - 1, t, x)
        vm, vc, vp = (_bilinear(sol.values if field == "u" else sol.x_derivative_values, cell)
                      for sol in self._solutions)
        d = np.asarray(theta, dtype=float) - self.theta_center
        first = (vp - vm) / (2.0 * self.dtheta)
        second = (vp - 2.0 * vc + vm) / self.dtheta**2
        return vc + d * first + 0.5 * d**2 * second, first, second, d

    def value(self, t, x, theta):
        val, _, _, _ = self._taylor(t, x, theta, "u")
        return val

    def value_x(self, t, x, theta):
        val, _, _, _ = self._taylor(t, x, theta, "ux")
        return val

    def value_theta(self, t, x, theta):
        _, first, second, d = self._taylor(t, x, theta, "u")
        return first + d * second

    def value_theta_x(self, t, x, theta):
        _, first, second, d = self._taylor(t, x, theta, "ux")
        return first + d * second

    # -- epsilon -> 0 limit by characteristics -----------------------------

    def _limit(self, t, x, theta, offsets):
        """The limit values at every (x + a, theta + b) of offsets, stacked
        along a leading axis, from one lockstep characteristics call per
        distinct t."""
        t, x, theta = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (t, x, theta)))
        out = np.empty((len(offsets),) + t.shape)
        for tv in np.unique(t):
            at = t == tv
            vals = characteristics_limit_value(
                self.model, self.driver, self.terminal, float(tv),
                np.concatenate([x[at] + a for a, _ in offsets]),
                np.concatenate([theta[at] + b for _, b in offsets]))
            out[:, at] = vals.reshape(len(offsets), -1)
        return out

    def limit_value(self, t, x, theta):
        return _scalar(self._limit(t, x, theta, ((0.0, 0.0),))[0])

    def limit_value_x(self, t, x, theta):
        dx = self._solutions[1].grid.dx
        up, lo = self._limit(t, x, theta, ((dx, 0.0), (-dx, 0.0)))
        return _scalar((up - lo) / (2.0 * dx))

    def limit_theta_derivatives(self, t, x, theta):
        """(udot, udot_x): the centered theta-difference of the limit value
        and its centered x-difference, from one lockstep characteristics call
        of all six lanes per distinct t."""
        d, dx = self.dtheta, self._solutions[1].grid.dx
        up, lo, pp, pm, mp, mm = self._limit(
            t, x, theta, ((0.0, d), (0.0, -d), (dx, d), (dx, -d), (-dx, d), (-dx, -d)))
        udot = (up - lo) / (2.0 * d)
        udot_x = ((pp - pm) / (2.0 * d) - (mp - mm) / (2.0 * d)) / (2.0 * dx)
        return _scalar(udot), _scalar(udot_x)


def theta_derivatives_by_bundle(model: ModelSpec, driver: Callable, terminal: Callable,
                                theta: float, epsilon: float, grid: PdeGrid,
                                dtheta: Optional[float] = None) -> PdeValueFunction:
    """March the PDE at theta - d, theta, theta + d in lockstep and wrap the bundle.

    Default spacing d = 1e-3 * |theta_interval|, balancing the O(d^2)
    truncation of the centered differences against roundoff amplification.
    Each lane's rows equal solve_semilinear_pde at its theta bit for bit.
    """
    a, b = model.theta_interval
    if dtheta is None:
        dtheta = 1e-3 * (b - a)
    if dtheta <= 0:
        raise ConfigurationError("dtheta must be positive")
    rows = _march(model, driver, terminal,
                  np.array([theta - dtheta, theta, theta + dtheta]), epsilon, grid)
    minus, center, plus = (PdeSolution(grid=grid, values=r) for r in rows)
    return PdeValueFunction(model, driver, terminal, theta, minus, center, plus, dtheta)
