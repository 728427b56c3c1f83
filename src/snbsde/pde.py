"""Finite-difference backend for the semilinear value-function PDE

    u_t + S(theta, t, x) u_x + (eps^2 sigma^2 / 2) u_xx
        = -f(t, x, u, eps sigma u_x),        u(T, x) = Phi(x),

solved backward in time with an explicit scheme.  Space derivatives switch
between central differences (diffusion-dominated nodes) and first-order
upwinding where |S| dx exceeds eps^2 sigma^2.  Boundary rows use a linear
extension (u_xx = 0, one-sided u_x), which deliberately trades boundary-layer
accuracy for unconditional simplicity; callers are expected to pick rectangles
wide enough that the region of interest stays away from the edges.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    EvaluationError,
    PdeDivergenceError,
    StabilityError,
)
from .grids import TimeGrid
from .models import ModelSpec, broadcast_eval, _rk4_values
from .value_functions import characteristics_limit_value

# Explicit-scheme safety factors.
DIFFUSION_NUMBER_MAX = 0.45
COURANT_MAX = 0.45
# Cap on internal time steps during stability auto-refinement.
INTERNAL_STEP_CAP = 2_000_000
# Cap on stored time rows.
STORED_ROWS_CAP = 2000


@dataclass(frozen=True)
class PdeGrid:
    """Space-time rectangle [0, T] x [x_min, x_max] with uniform nodes.

    n_t counts stored time rows; the solver may take several internal substeps
    per stored row to satisfy the explicit stability conditions.  n_t = None
    lets the solver pick the stored resolution from the stability limit.
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


@dataclass
class PdeSolution:
    """Stored rows of the backward solution; row j holds u(j * horizon / n_t, .)."""

    grid: PdeGrid
    values: np.ndarray
    substeps: int
    internal_dt: float
    upwind_fraction: float

    @cached_property
    def x_derivative_values(self) -> np.ndarray:
        """Nodal u_x rows: central in the interior, one-sided at the edges."""
        u = self.values
        dx = self.grid.dx
        ux = np.empty_like(u)
        ux[:, 1:-1] = (u[:, 2:] - u[:, :-2]) / (2.0 * dx)
        ux[:, 0] = (u[:, 1] - u[:, 0]) / dx
        ux[:, -1] = (u[:, -1] - u[:, -2]) / dx
        return ux


def _stability_substeps(model, theta, epsilon, grid, n_rows):
    """Internal substeps per stored row satisfying both explicit limits."""
    ts = np.linspace(0.0, grid.horizon, 9)
    xs = grid.xs
    tt = ts[:, None]
    xx = xs[None, :]
    smax = float(np.max(np.abs(broadcast_eval(model.drift(theta, tt, xx), (ts.size, xs.size)))))
    sig2max = float(np.max(broadcast_eval(model.diffusion(tt, xx), (ts.size, xs.size)) ** 2))
    dx = grid.dx
    dt_bounds = []
    diff = epsilon**2 * sig2max
    if diff > 0:
        dt_bounds.append(DIFFUSION_NUMBER_MAX * dx**2 / diff)
    if smax > 0:
        dt_bounds.append(COURANT_MAX * dx / smax)
    dt_row = grid.horizon / n_rows
    if not dt_bounds:
        return 1
    m = int(np.ceil(dt_row / min(dt_bounds)))
    if m * n_rows > INTERNAL_STEP_CAP:
        raise StabilityError(
            f"stability needs {m * n_rows} internal steps, above the cap {INTERNAL_STEP_CAP}"
        )
    return max(m, 1)


def solve_semilinear_pde(model: ModelSpec, driver: Callable, terminal: Callable,
                         theta: float, epsilon: float, grid: PdeGrid) -> PdeSolution:
    """March the explicit scheme backward from the terminal row.

    driver has signature f(t, x, y, z); terminal is Phi.  Returns the stored
    solution rows together with the substep bookkeeping.
    """
    xs = grid.xs
    dx = grid.dx
    if grid.n_t is None:
        # pick stored rows so that one substep per row meets the limits
        m1 = _stability_substeps(model, theta, epsilon, grid, 1)
        n_rows = min(max(200, m1), STORED_ROWS_CAP)
    else:
        n_rows = grid.n_t
    substeps = _stability_substeps(model, theta, epsilon, grid, n_rows)
    dt = grid.horizon / (n_rows * substeps)

    u = np.asarray(terminal(xs), dtype=float)
    if not np.all(np.isfinite(u)):
        raise EvaluationError("terminal function returned a non-finite value")
    rows = np.empty((n_rows + 1, xs.size))
    rows[n_rows] = u

    upwind_nodes = 0
    total_nodes = 0
    t = grid.horizon
    for j in range(n_rows - 1, -1, -1):
        for _ in range(substeps):
            s_arr = broadcast_eval(model.drift(theta, t, xs), xs.shape)
            sig = broadcast_eval(model.diffusion(t, xs), xs.shape)
            a2 = (epsilon * sig) ** 2

            slope = (u[1:] - u[:-1]) / dx
            fwd = np.concatenate((slope, slope[-1:]))
            bwd = np.concatenate((slope[:1], slope))
            central = np.empty_like(u)
            central[1:-1] = (u[2:] - u[:-2]) / (2.0 * dx)
            central[0] = slope[0]
            central[-1] = slope[-1]
            upwind = np.where(s_arr >= 0.0, fwd, bwd)
            use_up = np.abs(s_arr) * dx > a2
            ux = np.where(use_up, upwind, central)

            uxx = np.zeros_like(u)
            uxx[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dx**2

            z = epsilon * sig * ux
            rhs = s_arr * ux + 0.5 * a2 * uxx + np.asarray(driver(t, xs, u, z), dtype=float)
            u = u + dt * rhs
            t -= dt
            if not np.all(np.isfinite(u)):
                raise PdeDivergenceError(f"solution became non-finite near t={t:.6g}")
            upwind_nodes += int(np.count_nonzero(use_up))
            total_nodes += xs.size
        rows[j] = u

    return PdeSolution(
        grid=grid,
        values=rows,
        substeps=substeps,
        internal_dt=dt,
        upwind_fraction=upwind_nodes / max(total_nodes, 1),
    )


def _bilinear(rows: np.ndarray, grid: PdeGrid, n_rows: int, t, x):
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
    ft = rt - i0
    fx = rx - j0
    v00 = rows[i0, j0]
    v01 = rows[i0, j0 + 1]
    v10 = rows[i0 + 1, j0]
    v11 = rows[i0 + 1, j0 + 1]
    out = (1 - ft) * ((1 - fx) * v00 + fx * v01) + ft * ((1 - fx) * v10 + fx * v11)
    return out if out.shape else float(out)


def eval_solution(sol: PdeSolution, t, x):
    """Bilinear value and space derivative of a stored solution at (t, x)."""
    n_rows = sol.values.shape[0] - 1
    u = _bilinear(sol.values, sol.grid, n_rows, t, x)
    ux = _bilinear(sol.x_derivative_values, sol.grid, n_rows, t, x)
    return u, ux


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
        self._minus = minus
        self._center = center
        self._plus = plus
        self.dtheta = float(dtheta)

    # -- Taylor pieces -----------------------------------------------------

    def _taylor(self, t, x, theta, field):
        idx = 0 if field == "u" else 1
        vm = eval_solution(self._minus, t, x)[idx]
        vc = eval_solution(self._center, t, x)[idx]
        vp = eval_solution(self._plus, t, x)[idx]
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

    def _limit_scalar(self, t, x, theta):
        return characteristics_limit_value(self.model, self.driver, self.terminal,
                                           float(t), float(x), float(theta))

    def _vectorized(self, fn, t, x, theta):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        theta = np.asarray(theta, dtype=float)
        tb, xb, thb = np.broadcast_arrays(t, x, theta)
        out = np.array([fn(a, b, c) for a, b, c in zip(np.ravel(tb), np.ravel(xb), np.ravel(thb))])
        out = out.reshape(tb.shape)
        return out if out.shape else float(out)

    def limit_value(self, t, x, theta):
        return self._vectorized(self._limit_scalar, t, x, theta)

    def limit_value_x(self, t, x, theta):
        dx = self._center.grid.dx

        def fn(tt, xx, th):
            return (self._limit_scalar(tt, xx + dx, th) - self._limit_scalar(tt, xx - dx, th)) / (2.0 * dx)

        return self._vectorized(fn, t, x, theta)

    def limit_value_theta(self, t, x, theta):
        d = self.dtheta

        def fn(tt, xx, th):
            return (self._limit_scalar(tt, xx, th + d) - self._limit_scalar(tt, xx, th - d)) / (2.0 * d)

        return self._vectorized(fn, t, x, theta)

    def limit_value_theta_x(self, t, x, theta):
        d = self.dtheta
        dx = self._center.grid.dx

        def fn(tt, xx, th):
            up = (self._limit_scalar(tt, xx + dx, th + d) - self._limit_scalar(tt, xx + dx, th - d)) / (2.0 * d)
            lo = (self._limit_scalar(tt, xx - dx, th + d) - self._limit_scalar(tt, xx - dx, th - d)) / (2.0 * d)
            return (up - lo) / (2.0 * dx)

        return self._vectorized(fn, t, x, theta)


def theta_derivatives_by_bundle(model: ModelSpec, driver: Callable, terminal: Callable,
                                theta: float, epsilon: float, grid: PdeGrid,
                                dtheta: Optional[float] = None) -> PdeValueFunction:
    """Solve the PDE at theta - d, theta, theta + d and wrap the bundle.

    Default spacing d = 1e-3 * |theta_interval|, balancing the O(d^2)
    truncation of the centered differences against roundoff amplification.
    """
    a, b = model.theta_interval
    if dtheta is None:
        dtheta = 1e-3 * (b - a)
    if dtheta <= 0:
        raise ConfigurationError("dtheta must be positive")
    minus = solve_semilinear_pde(model, driver, terminal, theta - dtheta, epsilon, grid)
    center = solve_semilinear_pde(model, driver, terminal, theta, epsilon, grid)
    plus = solve_semilinear_pde(model, driver, terminal, theta + dtheta, epsilon, grid)
    return PdeValueFunction(model, driver, terminal, theta, minus, center, plus, dtheta)
