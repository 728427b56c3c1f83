"""Value functions u(t, x, theta) linking the backward equation to the path.

The backward component is represented as Y_t = u(t, X_t, theta) and
Z_t = epsilon sigma(t, X_t) u_x(t, X_t, theta).  Two backends provide u:

* LinearValueFunction: closed form for constant drift S = theta, constant
  sigma and linear driver f(y, z) = beta y + gamma z.  Then

      u(t, x, theta) = e^{beta (T-t)} E[ Phi(x + (theta + eps sigma gamma)(T-t) - N) ],
      N ~ Normal(0, eps^2 sigma^2 (T-t)),

  with the expectation in closed form when the terminal declares one
  (TerminalCondition.expectations) and by Gauss-Hermite quadrature otherwise.

* PdeValueFunction (pde module): finite-difference solution bundle for
  general coefficients.

Both expose the theta-derivatives of the epsilon -> 0 limit u0, which enter
the efficiency bounds.  By convention u(T, x, theta) = Phi(x) exactly.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .errors import ConfigurationError, EvaluationError, IntegrationDivergedError
from .grids import TimeGrid
from .models import ModelSpec, broadcast_eval, finite_or_raise, flow_ode, rk4

GH_NODES_DEFAULT = 64
# hermgauss weights underflow to nan past ~300 nodes, so the ladder stops at 256
GH_NODES_CAP = 256
GH_AGREE_TOL = 1e-9
# (mean, sd) pairs on which a declared closed-form expectation is spot-checked
_CHECK_MEAN = np.array([0.0, 1.3, -0.7, 0.4, -2.1])
_CHECK_SD = np.array([0.0, 0.0, 0.5, 1.0, 1.5])


@dataclass(frozen=True)
class TerminalCondition:
    """Terminal payoff Phi with analytic first and second derivatives.

    growth_coeff and growth_power declare |Phi(x)| <= C (1 + |x|^p); the
    declaration is spot-checked on |x| <= 10 at construction.

    expectations, when given, holds closed forms (mean, sd) -> E[g(N)] for
    N ~ Normal(mean, sd^2) and g = f, df, d2f in that order.  expect() uses
    them when declared and Gauss-Hermite quadrature otherwise; each declared
    form is spot-checked against quadrature at construction.
    """

    name: str
    f: Callable
    df: Callable
    d2f: Callable
    growth_coeff: float
    growth_power: float
    expectations: Optional[Tuple[Callable, Callable, Callable]] = None

    def __post_init__(self):
        xs = np.linspace(-10.0, 10.0, 41)
        vals = np.asarray(self.f(xs), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ConfigurationError(f"terminal {self.name} non-finite on |x| <= 10")
        bound = self.growth_coeff * (1.0 + np.abs(xs) ** self.growth_power)
        if np.any(np.abs(vals) > bound * (1.0 + 1e-9)):
            raise ConfigurationError(f"terminal {self.name} violates its declared growth bound")
        if self.expectations is not None:
            if len(self.expectations) != 3:
                raise ConfigurationError(
                    f"terminal {self.name} must declare expectations of f, df and d2f")
            for order in range(3):
                want = gauss_hermite_expectation(self.derivative(order), _CHECK_MEAN, _CHECK_SD)
                got = np.asarray(self.expectations[order](_CHECK_MEAN, _CHECK_SD), dtype=float)
                if not np.all(np.abs(got - want) <= GH_AGREE_TOL * (1.0 + np.abs(want))):
                    raise ConfigurationError(
                        f"terminal {self.name}: declared expectation of order {order} "
                        "disagrees with Gauss-Hermite quadrature")

    def derivative(self, order: int) -> Callable:
        """f, df or d2f for order 0, 1 or 2."""
        return (self.f, self.df, self.d2f)[order]

    def expect(self, order: int, mean, sd) -> np.ndarray:
        """E[g(N)] for N ~ Normal(mean, sd^2) and g = derivative(order), elementwise."""
        if self.expectations is None:
            return gauss_hermite_expectation(self.derivative(order), mean, sd)
        mean, sd = np.broadcast_arrays(np.asarray(mean, dtype=float),
                                       np.asarray(sd, dtype=float))
        out = np.broadcast_to(np.asarray(self.expectations[order](mean, sd), dtype=float),
                              mean.shape)
        if not np.all(np.isfinite(out)):
            raise EvaluationError(f"closed-form expectation of terminal {self.name} "
                                  "returned a non-finite value")
        return out


@dataclass
class LinearModelSpec:
    """Constant-drift forward model with linear driver, solvable in closed form.

    Forward: dX = theta dt + eps sigma dW on [0, horizon].
    Backward driver: f(t, x, y, z) = beta y + gamma z.
    """

    sigma: float
    beta: float
    gamma: float
    terminal: TerminalCondition
    horizon: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ConfigurationError("sigma must be positive")
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be positive")


@lru_cache(maxsize=8)
def _gh_nodes(n: int):
    z, w = np.polynomial.hermite.hermgauss(n)
    return z, w / np.sqrt(np.pi)


def gauss_hermite_expectation(fn: Callable, mean, sd) -> np.ndarray:
    """E[fn(N)] for N ~ Normal(mean, sd^2), elementwise over mean/sd arrays.

    Starts at 64 nodes and doubles until two successive node counts agree to
    1e-9 elementwise (cap 256).  Convergence is judged per element, and the
    weighted sum is reduced row by row, so a value never depends on which
    other points share the batch.
    """
    mean = np.asarray(mean, dtype=float)
    sd = np.asarray(sd, dtype=float)
    mean, sd = np.broadcast_arrays(mean, sd)
    shape = mean.shape
    mean = np.ravel(mean)
    sd = np.ravel(sd)

    def evaluate(n):
        z, w = _gh_nodes(n)
        pts = mean[:, None] + np.sqrt(2.0) * sd[:, None] * z[None, :]
        vals = np.asarray(fn(pts), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise EvaluationError("terminal function returned a non-finite value")
        if not vals.flags.writeable:
            vals = vals.copy()
        np.multiply(vals, w, out=vals)
        return np.add.reduce(vals, axis=1)

    prev = evaluate(GH_NODES_DEFAULT)
    result = prev.copy()
    settled = np.zeros(prev.shape, dtype=bool)
    n = GH_NODES_DEFAULT
    while n < GH_NODES_CAP:
        n *= 2
        cur = evaluate(n)
        agree = np.abs(cur - prev) <= GH_AGREE_TOL * (1.0 + np.abs(cur))
        result = np.where(settled, result, cur)
        settled = settled | agree
        if np.all(settled):
            break
        prev = cur
    else:
        result = np.where(settled, result, prev)
    return result.reshape(shape)


class LinearValueFunction:
    """Closed-form value function of the constant-drift linear case.

    The value methods return a float for scalar arguments and otherwise a
    new array that the caller owns and may write into.
    """

    def __init__(self, spec: LinearModelSpec, epsilon: float):
        if epsilon < 0:
            raise ConfigurationError("epsilon must be nonnegative")
        self.spec = spec
        self.epsilon = float(epsilon)

    # -- kernel pieces -----------------------------------------------------

    def _kernel(self, order, t, x, theta):
        """e^{beta tau} E[Phi^(order)(x + shift - N)], tau = T - t, with
        shift = (theta + eps sigma gamma) tau and N ~ Normal(0, (eps sigma)^2 tau),
        and the terminal convention Phi^(order)(x) at t = T.

        tau, the sd of N, e^{beta tau} and the t = T test are formed on t's
        own shape (one row of times in the engine).  The mean
        (theta + eps sigma gamma) tau + x is formed in the one array of the
        full broadcast shape that the kernel allocates, which then takes the
        product of e^{beta tau} and the expectation, and Phi^(order)(x) at
        the elements where t = T.  Each element sees the same operations as
        on fully broadcast arguments, so the bits do not depend on the shapes
        passed, and the result is an array the caller owns.
        """
        s = self.spec
        terminal = s.terminal
        tau = s.horizon - np.asarray(t, dtype=float)
        sd = self.epsilon * s.sigma * np.sqrt(np.maximum(tau, 0.0))
        x = np.asarray(x, dtype=float)
        theta = np.asarray(theta, dtype=float)
        out = np.empty(np.broadcast_shapes(x.shape, theta.shape, tau.shape))
        drift = np.add(theta, self.epsilon * s.sigma * s.gamma,
                       out=out if theta.shape == out.shape else None)
        np.multiply(drift, tau, out=out)
        out += x
        np.multiply(np.exp(s.beta * tau), terminal.expect(order, out, sd), out=out)
        at_T = tau <= 0.0
        if np.any(at_T):
            # index the axes along which t varies by its own t = T entries,
            # and take every element along the others
            at_T = at_T.reshape((1,) * (out.ndim - at_T.ndim) + at_T.shape)
            hits = np.nonzero(at_T) if at_T.ndim else ()
            sel = tuple(h if size > 1 else slice(None) for h, size in zip(hits, at_T.shape))
            out[sel] = terminal.derivative(order)(np.broadcast_to(x, out.shape)[sel])
        return out if out.shape else float(out)

    # -- value and derivatives --------------------------------------------

    def value(self, t, x, theta):
        return self._kernel(0, t, x, theta)

    def value_x(self, t, x, theta):
        return self._kernel(1, t, x, theta)

    def value_theta(self, t, x, theta):
        tau = self.spec.horizon - np.asarray(t, dtype=float)
        return tau * self._kernel(1, t, x, theta)

    def value_theta_x(self, t, x, theta):
        tau = self.spec.horizon - np.asarray(t, dtype=float)
        return tau * self._kernel(2, t, x, theta)

    # -- epsilon -> 0 limit ------------------------------------------------

    def _limit_kernel(self, fn, t, x, theta):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        theta = np.asarray(theta, dtype=float)
        t, x, theta = np.broadcast_arrays(t, x, theta)
        tau = self.spec.horizon - t
        out = np.exp(self.spec.beta * tau) * np.asarray(fn(x + theta * tau), dtype=float)
        return out if out.shape else float(out)

    def limit_theta_derivatives(self, t, x, theta):
        """(udot, udot_x): the theta-derivative of the limit value function
        and its x-derivative."""
        tau = self.spec.horizon - np.asarray(t, dtype=float)
        return (tau * self._limit_kernel(self.spec.terminal.df, t, x, theta),
                tau * self._limit_kernel(self.spec.terminal.d2f, t, x, theta))


class _LaneGrids(NamedTuple):
    """TimeGrids of one step count, one per lane, stepped together by rk4:
    times[k] holds node k of every lane's grid and h every lane's step, each
    bit for bit its own TimeGrid's."""

    times: np.ndarray
    h: np.ndarray
    n_steps: int


def _lane_grids(starts: np.ndarray, t_end: float, n_steps: int) -> _LaneGrids:
    """The TimeGrid(t, t_end, n_steps) of each start t, built once per distinct t."""
    distinct, lane = np.unique(starts, return_inverse=True)
    grids = [TimeGrid(float(t), t_end, n_steps) for t in distinct]
    return _LaneGrids(np.stack([g.times for g in grids], axis=1)[:, lane],
                      np.array([g.h for g in grids])[lane], n_steps)


def characteristics_limit_value(model: ModelSpec, driver: Callable, terminal: Callable,
                                t, x, theta, n_steps: int = 256):
    """epsilon -> 0 limit value for general coefficients by characteristics.

    t, x and theta broadcast against each other into lanes, each with its own
    start time.  A lane with t < T integrates its limit flow from (t, x) to
    the horizon, then the scalar transport equation dy/ds = -f(s, x_s, y, 0)
    backward from y(T) = Phi(x_T), both by fixed-step RK4 on its own
    TimeGrid(t, T, 2 n_steps): the forward pass on every node, so the
    backward pass on full steps has exact stage states.  All such lanes step
    together, node k of each lane's grid side by side, with elementwise
    arithmetic, so a lane's value does not depend on the other lanes.  A lane
    with t = T reads Phi(x).  Returns a float for scalar arguments, else an
    array of their broadcast shape; raises IntegrationDivergedError when
    either pass turns non-finite.
    """
    T = model.horizon
    t, x, theta = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (t, x, theta)))
    if np.any(t > T):
        raise ConfigurationError("t beyond horizon")
    y = np.empty(x.shape)
    at_T = t == T
    if np.any(at_T):
        y[at_T] = terminal(x[at_T])
    live = ~at_T
    if np.any(live):
        half_steps = _lane_grids(t[live], T, 2 * n_steps)
        ts = half_steps.times
        xs = finite_or_raise(rk4(*flow_ode(model, theta[live], x[live]), half_steps),
                             half_steps)
        # backward transport on full steps
        h = 2.0 * half_steps.h
        y_live = broadcast_eval(terminal(xs[-1]), xs.shape[1:])

        def g(idx, yv):
            return -np.asarray(driver(ts[idx], xs[idx], yv, 0.0), dtype=float)

        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(half_steps.n_steps, 0, -2):
                k1 = g(k, y_live)
                k2 = g(k - 1, y_live - 0.5 * h * k1)
                k3 = g(k - 1, y_live - 0.5 * h * k2)
                k4 = g(k - 2, y_live - h * k3)
                y_live = y_live - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y_live)):
            raise IntegrationDivergedError("transport equation diverged on the characteristic")
        y[live] = y_live
    return y if y.shape else float(y)
