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

The step is second order in t, so a grid that leaves n_t unset stores
DEFAULT_ROWS = 100 rows: at n_x = 400 the bilinear x-read, not the time step,
sets the error of what the bundle reads.  On constant drift with the cosine
payoff at eps = 0.02 the bundle's u_theta_x misses the closed form by
1.806e-3 at 100 rows and 1.808e-3 at 200; on the sine drift at eps = 0.05,
read between rows, 100 rows miss an 800-row solve by 1.7e-5 in u and 2.5e-4
in u_theta_x.
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
from .models import ModelSpec, broadcast_eval, finite_or_raise, flow_ode, rk4
from .value_functions import characteristics_limit_value

# Stored time rows (one step each) when the grid leaves n_t unset.  The
# x-read, not the time step, sets the bundle's error at n_x = 400: u_theta_x
# on the cosine payoff misses the closed form by 1.806e-3 at 100 rows against
# 1.808e-3 at 200 (tests/test_pde.py pins the reads between rows).
DEFAULT_ROWS = 100


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
    grid = TimeGrid(0.0, model.horizon, 200)
    flows = finite_or_raise(rk4(*flow_ode(model, np.linspace(a, b, n_samples)), grid), grid)
    lam = float(np.max(np.abs(flows - model.x0))) + 1.0
    return model.x0 - 6.0 * lam, model.x0 + 6.0 * lam


def _slope(u: np.ndarray, dx: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """u_x along the last axis: central in the interior, one-sided at the
    edges; written into out when given."""
    ux = np.empty_like(u) if out is None else out
    np.subtract(u[..., 2:], u[..., :-2], out=ux[..., 1:-1])
    ux[..., 1:-1] /= 2.0 * dx
    # the edge columns 0 and n at once: u_1 - u_0 and u_n - u_{n-1}
    n = u.shape[-1] - 1
    edges = ux[..., ::n]
    np.subtract(u[..., 1::n - 1], u[..., ::n - 1], out=edges)
    edges /= dx
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


class _Cubic:
    """Four-point cubic reads of node data (lanes, n + 1) at fractional node
    positions.

    The caller writes the data into `nodes`, a view of a buffer that carries
    one ghost node before them and two after, which extend the data linearly
    past each edge.  read(pos) interpolates at pos (broadcasting against the
    data) in Newton form on the nodes j, j + 1, j - 1, j + 2 inside [0, n],
    and extrapolates linearly beyond the edges.  A position on a node returns
    that node's value exactly, and a non-finite position a non-finite value.

    The stencil (the lane-shifted node indices, the fractions and the offsets
    from j) is rebuilt only when pos differs from the last read's, so a march
    whose departure points do not move from step to step builds it once.
    read returns a scratch array that the next read overwrites.
    """

    def __init__(self, lanes: int, n: int):
        self._n = n
        self._padded = np.empty((lanes, n + 4))
        self._flat = self._padded.ravel()
        self.nodes = self._padded[:, 1:-2]
        # the four stencil nodes j - 1, j, j + 1, j + 2 of lane l sit at
        # l (n + 4) + j + k, k = 0..3, of the flat buffer
        self._shift = np.arange(4)[:, None, None] + (n + 4) * np.arange(lanes)[:, None]
        self._g = np.empty((4, lanes, n + 1))
        self._pos = None

    def _stencil(self, pos: np.ndarray):
        inside = np.fmin(np.fmax(pos, 0.0), self._n)
        j = inside.astype(np.intp)
        frac = inside - j
        s = pos - j
        self._take = j + self._shift
        # the Newton weights' factors that depend on the position only
        self._weights = s, frac * (frac - 1.0), frac + 1.0
        self._pos = pos

    def read(self, pos: np.ndarray) -> np.ndarray:
        if self._pos is None or not np.array_equal(pos, self._pos):
            self._stencil(pos)
        p, g = self._padded, self.nodes
        slope_lo = g[:, 1] - g[:, 0]
        slope_hi = g[:, -1] - g[:, -2]
        np.subtract(g[:, 0], slope_lo, out=p[:, 0])
        np.add(g[:, -1], slope_hi, out=p[:, -2])
        np.add(g[:, -1], 2.0 * slope_hi, out=p[:, -1])
        np.take(self._flat, self._take, out=self._g, mode="clip")
        gm, g0, g1, g2 = self._g
        s, quad, cub = self._weights
        # g0 + s d1 + frac (frac - 1) (half_d2 + (frac + 1) sixth_d3), with
        # d1 = g1 - g0, half_d2 = (d1 - (g0 - gm)) / 2 and
        # sixth_d3 = ((g2 - gm) / 3 - d1) / 2, each operation as written
        d1 = np.subtract(g1, g0, out=g1)
        np.subtract(g2, gm, out=g2)
        half_d2 = np.subtract(g0, gm, out=gm)
        np.subtract(d1, half_d2, out=half_d2)
        half_d2 *= 0.5
        g2 /= 3.0
        g2 -= d1
        g2 *= 0.5
        g2 *= cub
        g2 += half_d2
        g2 *= quad
        d1 *= s
        g0 += d1
        g0 += g2
        return g0


def _march(model: ModelSpec, driver: Callable, terminal: Callable,
           thetas: np.ndarray, epsilon: float, grid: PdeGrid) -> np.ndarray:
    """Semi-Lagrangian Crank-Nicolson march of one lane per theta, in lockstep.

    Returns the stored rows, shaped (lanes, n_rows + 1, n_x + 1).  Lanes share
    every theta-free quantity, above all the diffusion matrix: one tridiagonal
    factorization serves a right-hand side per lane.  Every other operation
    is elementwise, so a lane's rows do not depend on which lanes march with
    it.

    The driver at t0 is Heun's: the predictor is the explicit Euler step
    g(x_d) + (dt/2) (diffusion + f)(t1, x), the corrector the Crank-Nicolson
    solve with f(t0, x, predictor).

    A step redoes only what changed since the step before, and computes what
    it redoes in the same operations, so the rows do not depend on what was
    reused:
    * the matrix is factored again only when r = (dt/4) (eps sigma / dx)^2
      differs from the r it was last factored at, so a sigma that does not
      depend on t is factored once;
    * the cubic stencil is rebuilt only when the departure positions differ
      from the last step's, so a drift that does not depend on t builds it
      once;
    * the ghost-node buffer, the lane offsets, the slope and the second
      difference are scratch arrays allocated once.
    The finiteness check still runs at every step.
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
        """eps sigma at the nodes, and r = (dt/4) (eps sigma / dx)^2 inside;
        both scalars when sigma does not depend on x."""
        eps_sig = np.asarray(np.multiply(epsilon, model.diffusion(t, xs)), dtype=float)
        if eps_sig.ndim:
            eps_sig = broadcast_eval(eps_sig, xs.shape)
            return eps_sig, (0.25 * dt / dx**2) * eps_sig[1:-1] ** 2
        return eps_sig, (0.25 * dt / dx**2) * eps_sig ** 2

    slope = np.empty(shape)

    def f_at(t, v, eps_sig):
        return broadcast_eval(driver(t, x_lanes, v, eps_sig * _slope(v, dx, out=slope)), shape)

    # I - (dt/4) eps^2 sigma^2 D2, with identity boundary rows, factored at r_lu
    diag = np.ones(xs.size)
    upper = np.zeros(xs.size - 1)
    lower = np.zeros(xs.size - 1)
    r_lu = lu = None
    cubic = _Cubic(shape[0], xs.size - 1)
    lap = np.empty((shape[0], xs.size - 2))
    eps_sig1, r1 = noise(times[-1])
    f1 = f_at(times[-1], u, eps_sig1)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n_rows - 1, -1, -1):
            t0 = times[j]
            # explicit half at t1: (dt/2) ((eps sigma)^2 / 2 u_xx + f)
            explicit = half * f1
            np.add(u[:, 2:], u[:, :-2], out=lap)
            lap -= 2.0 * u[:, 1:-1]
            lap *= r1
            explicit[:, 1:-1] += lap
            s0 = np.asarray(model.drift(theta, t0, x_lanes), dtype=float)
            s_mid = model.drift(theta, t0 + half, x_lanes + half * s0)
            np.add(u, explicit, out=cubic.nodes)
            g_dep = cubic.read(nodes + (dt / dx) * np.asarray(s_mid, dtype=float))
            eps_sig0, r0 = noise(t0)
            if r_lu is None or not np.array_equal(r0, r_lu):
                diag[1:-1] = 1.0 + 2.0 * r0
                upper[1:] = -r0
                lower[:-1] = -r0
                lu, r_lu = dgttrf(lower, diag, upper)[:5], r0
            rhs = half * f_at(t0, g_dep + explicit, eps_sig0)
            rhs += g_dep
            u = dgttrs(*lu, rhs.T, overwrite_b=1)[0].T
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
    estimator error, both small).  The value methods return new arrays that
    the caller owns and may write into.
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
        along a leading axis, from one lockstep characteristics call whose
        lanes start at their own t."""
        t, x, theta = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (t, x, theta)))
        return characteristics_limit_value(
            self.model, self.driver, self.terminal, np.broadcast_to(t, (len(offsets),) + t.shape),
            np.stack([x + a for a, _ in offsets]), np.stack([theta + b for _, b in offsets]))

    def limit_theta_derivatives(self, t, x, theta):
        """(udot, udot_x): the centered theta-difference of the limit value
        and its centered x-difference, from one lockstep characteristics call
        of six lanes per point."""
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
