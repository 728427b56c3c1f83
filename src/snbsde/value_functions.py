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

Both expose the epsilon -> 0 limit u0 and its theta-derivatives, which enter
the efficiency bounds.  By convention u(T, x, theta) = Phi(x) exactly.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import ConfigurationError, EvaluationError
from .grids import TimeGrid
from .models import ModelSpec, broadcast_eval, _rk4_values

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

    Forward: dX = theta dt + eps sigma dW on [0, horizon], X_0 = x0.
    Backward driver: f(t, x, y, z) = beta y + gamma z.
    """

    sigma: float
    beta: float
    gamma: float
    terminal: TerminalCondition
    theta_interval: Tuple[float, float]
    x0: float
    horizon: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ConfigurationError("sigma must be positive")
        a, b = self.theta_interval
        if not a < b:
            raise ConfigurationError("theta_interval must be a nonempty open interval")
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
    """Closed-form value function of the constant-drift linear case."""

    def __init__(self, spec: LinearModelSpec, epsilon: float):
        if epsilon < 0:
            raise ConfigurationError("epsilon must be nonnegative")
        self.spec = spec
        self.epsilon = float(epsilon)

    # -- kernel pieces -----------------------------------------------------

    def _shift_and_sd(self, t, theta):
        s = self.spec
        tau = s.horizon - np.asarray(t, dtype=float)
        shift = (np.asarray(theta, dtype=float) + self.epsilon * s.sigma * s.gamma) * tau
        sd = self.epsilon * s.sigma * np.sqrt(np.maximum(tau, 0.0))
        return tau, shift, sd

    def _kernel(self, order, t, x, theta):
        """e^{beta tau} E[Phi^(order)(x + shift - N)] with the terminal convention at t = T."""
        terminal = self.spec.terminal
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        theta = np.asarray(theta, dtype=float)
        t, x, theta = np.broadcast_arrays(t, x, theta)
        tau, shift, sd = self._shift_and_sd(t, theta)
        out = np.exp(self.spec.beta * tau) * terminal.expect(order, x + shift, sd)
        at_T = tau <= 0.0
        if np.any(at_T):
            out = np.where(at_T, np.asarray(terminal.derivative(order)(x), dtype=float), out)
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

    def limit_value(self, t, x, theta):
        return self._limit_kernel(self.spec.terminal.f, t, x, theta)

    def limit_value_x(self, t, x, theta):
        return self._limit_kernel(self.spec.terminal.df, t, x, theta)

    def limit_value_theta(self, t, x, theta):
        tau = self.spec.horizon - np.asarray(t, dtype=float)
        return tau * self._limit_kernel(self.spec.terminal.df, t, x, theta)

    def limit_value_theta_x(self, t, x, theta):
        tau = self.spec.horizon - np.asarray(t, dtype=float)
        return tau * self._limit_kernel(self.spec.terminal.d2f, t, x, theta)


def characteristics_limit_value(model: ModelSpec, driver: Callable, terminal: Callable,
                                t: float, x, theta, n_steps: int = 256):
    """epsilon -> 0 limit value for general coefficients by characteristics.

    x and theta broadcast against each other into lanes that share the start
    time t.  Integrates the limit flows from (t, x) to the horizon in lockstep,
    then the scalar transport equations dy/ds = -f(s, x_s, y, 0) backward from
    y(T) = Phi(x_T).  Both passes are fixed-step RK4 with elementwise
    arithmetic, so a lane's value does not depend on the other lanes; the
    forward pass is stored on half steps so the backward pass has exact stage
    states.  Returns a float for scalar x and theta, else an array of their
    broadcast shape.
    """
    T = model.horizon
    if t > T:
        raise ConfigurationError("t beyond horizon")
    x, theta = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(theta, dtype=float))
    shape = x.shape
    if t == T:
        y = broadcast_eval(terminal(x), shape)
    else:
        half_steps = TimeGrid(t, T, 2 * n_steps)
        ts = half_steps.times
        xs = _rk4_values(model, np.ravel(theta), half_steps, x_start=np.ravel(x))
        # backward transport on full steps
        h = 2.0 * half_steps.h
        y = broadcast_eval(terminal(xs[-1]), xs.shape[1:])

        def g(idx, yv):
            return -np.asarray(driver(ts[idx], xs[idx], yv, 0.0), dtype=float)

        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(half_steps.n_steps, 0, -2):
                k1 = g(k, y)
                k2 = g(k - 1, y - 0.5 * h * k1)
                k3 = g(k - 1, y - 0.5 * h * k2)
                k4 = g(k - 2, y - h * k3)
                y = y - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise ConfigurationError("transport equation diverged on the characteristic")
        y = y.reshape(shape)
    return y if y.shape else float(y)
