"""Ready-made model families, terminal payoffs, and drivers.

Every coefficient lives at module level (closures only through
functools.partial over plain floats) so bundles can be pickled and rebuilt
from a name plus a parameter dict.  Each bundle is validated against its
declared derivatives and bounds at build time.
"""

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError
from .models import ModelSpec, validate_model
from .value_functions import LinearModelSpec, TerminalCondition


# ---------------------------------------------------------------------------
# terminal payoffs

def _identity_f(x):
    return np.asarray(x, dtype=float)


def _identity_df(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _identity_d2f(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _square_f(x):
    x = np.asarray(x, dtype=float)
    return x * x


def _square_df(x):
    return 2.0 * np.asarray(x, dtype=float)


def _square_d2f(x):
    return np.full_like(np.asarray(x, dtype=float), 2.0)


def _cosine_f(x):
    return np.cos(np.asarray(x, dtype=float))


def _cosine_df(x):
    return -np.sin(np.asarray(x, dtype=float))


def _cosine_d2f(x):
    return -np.cos(np.asarray(x, dtype=float))


# closed-form E[g(N)], N ~ Normal(m, s^2), for g = f, df, d2f of each payoff

def _identity_e0(m, s):
    return m


def _identity_e1(m, s):
    return np.ones_like(m)


def _identity_e2(m, s):
    return np.zeros_like(m)


def _square_e0(m, s):
    return m * m + s * s


def _square_e1(m, s):
    return 2.0 * m


def _square_e2(m, s):
    return np.full_like(m, 2.0)


def _cosine_e0(m, s):
    return np.cos(m) * np.exp(-0.5 * s * s)


def _cosine_e1(m, s):
    return -np.sin(m) * np.exp(-0.5 * s * s)


def _cosine_e2(m, s):
    return -np.cos(m) * np.exp(-0.5 * s * s)


TERMINALS = {
    "identity": TerminalCondition("identity", _identity_f, _identity_df,
                                  _identity_d2f, 1.0, 1.0,
                                  (_identity_e0, _identity_e1, _identity_e2)),
    "square": TerminalCondition("square", _square_f, _square_df,
                                _square_d2f, 1.0, 2.0,
                                (_square_e0, _square_e1, _square_e2)),
    "cosine": TerminalCondition("cosine", _cosine_f, _cosine_df,
                                _cosine_d2f, 1.0, 0.0,
                                (_cosine_e0, _cosine_e1, _cosine_e2)),
}


# ---------------------------------------------------------------------------
# drivers

def linear_driver(beta, gamma, t, x, y, z):
    return beta * y + gamma * z


def make_linear_driver(beta: float, gamma: float) -> Callable:
    return partial(linear_driver, float(beta), float(gamma))


# ---------------------------------------------------------------------------
# drift/diffusion families; theta and x may be scalars or broadcastable arrays.
# Each returns its natural shape: a term constant in an argument does not
# broadcast against it, so a constant coefficient is a scalar (or theta).

def _const_drift(theta, t, x):
    return theta


def _one_theta_x(theta, t, x):
    return 1.0


def _zero_theta_x(theta, t, x):
    return 0.0


def _prop_drift(theta, t, x):
    return theta * np.asarray(x, dtype=float)


def _prop_drift_dtheta(theta, t, x):
    return np.asarray(x, dtype=float)


def _prop_drift_dx(theta, t, x):
    return theta


def _sine_drift(theta, t, x):
    return theta * np.sin(np.asarray(x, dtype=float))


def _sine_drift_dtheta(theta, t, x):
    return np.sin(np.asarray(x, dtype=float))


def _sine_drift_dx(theta, t, x):
    return theta * np.cos(np.asarray(x, dtype=float))


def _sine_drift_dtheta_dx(theta, t, x):
    return np.cos(np.asarray(x, dtype=float))


def _tanh_drift(theta, t, x):
    return theta * np.tanh(np.asarray(x, dtype=float))


def _tanh_drift_dtheta(theta, t, x):
    return np.tanh(np.asarray(x, dtype=float))


def _tanh_drift_dx(theta, t, x):
    return theta * (1.0 - np.tanh(np.asarray(x, dtype=float)) ** 2)


def _tanh_drift_dtheta_dx(theta, t, x):
    return 1.0 - np.tanh(np.asarray(x, dtype=float)) ** 2


def _const_diffusion(sigma, t, x):
    return sigma


def _zero_diffusion_dx(t, x):
    return 0.0


# (S, S_theta, S_x, S_theta_x) of each preset's drift; custom-pde picks a shape
_DRIFTS = {
    "linear-constant-drift": (_const_drift, _one_theta_x, _zero_theta_x, _zero_theta_x),
    "linear-ou": (_prop_drift, _prop_drift_dtheta, _prop_drift_dx, _one_theta_x),
    "sine": (_sine_drift, _sine_drift_dtheta, _sine_drift_dx, _sine_drift_dtheta_dx),
    "tanh": (_tanh_drift, _tanh_drift_dtheta, _tanh_drift_dx, _tanh_drift_dtheta_dx),
}
_DRIFT_SHAPES = ("sine", "tanh")


# ---------------------------------------------------------------------------
# bundles

@dataclass(frozen=True)
class ModelBundle:
    """A forward model with its backward driver and terminal payoff.

    linear is set when the constant-drift closed form applies; other bundles
    must be priced through the grid solver or the characteristics fallback.
    """

    name: str
    model: ModelSpec
    driver: Callable
    terminal: TerminalCondition
    linear: Optional[LinearModelSpec]


MODEL_NAMES = ("linear-constant-drift", "linear-ou", "custom-pde")

_COMMON_PARAMS = {"sigma", "beta", "gamma", "terminal", "theta_interval",
                  "x0", "horizon"}
_ALLOWED_PARAMS = {
    "linear-constant-drift": _COMMON_PARAMS,
    "linear-ou": _COMMON_PARAMS,
    "custom-pde": _COMMON_PARAMS | {"drift_shape"},
}


def build_preset(name: str, params: Optional[dict] = None) -> ModelBundle:
    """Build and validate a named bundle.

    params may override sigma, beta, gamma, terminal, theta_interval, x0 and
    horizon; custom-pde additionally accepts drift_shape in {sine, tanh}.
    Unknown keys are rejected by name.
    """
    if name not in MODEL_NAMES:
        raise ConfigurationError(
            f"unknown model '{name}'; choose from {', '.join(MODEL_NAMES)}")
    params = dict(params or {})
    for key in params:
        if key not in _ALLOWED_PARAMS[name]:
            raise ConfigurationError(f"unknown model parameter '{key}' for {name}")

    sigma = float(params.get("sigma", 1.0))
    beta = float(params.get("beta", 0.1))
    gamma = float(params.get("gamma", 0.2))
    terminal_name = params.get("terminal", "identity")
    if terminal_name not in TERMINALS:
        raise ConfigurationError(
            f"unknown terminal '{terminal_name}'; choose from {', '.join(sorted(TERMINALS))}")
    terminal = TERMINALS[terminal_name]
    interval = params.get("theta_interval", (0.1, 1.9))
    if len(interval) != 2:
        raise ConfigurationError("theta_interval must have two entries")
    interval = (float(interval[0]), float(interval[1]))
    # x = 0 is a fixed point of the proportional and sine/tanh drifts where the
    # parameter sensitivity vanishes, so those families start at 1 by default
    x0 = float(params.get("x0", 0.0 if name == "linear-constant-drift" else 1.0))
    horizon = float(params.get("horizon", 1.0))
    if sigma <= 0:
        raise ConfigurationError("sigma must be positive")

    growth = max(abs(interval[0]), abs(interval[1]), sigma)
    shape = name
    if name == "custom-pde":
        shape = params.get("drift_shape", "sine")
        if shape not in _DRIFT_SHAPES:
            raise ConfigurationError(
                f"unknown drift_shape '{shape}'; choose from {', '.join(_DRIFT_SHAPES)}")
    s, s_th, s_x, s_thx = _DRIFTS[shape]
    model = ModelSpec(
        drift=s,
        drift_dtheta=s_th,
        drift_dx=s_x,
        drift_dtheta_dx=s_thx,
        diffusion=partial(_const_diffusion, sigma),
        diffusion_dx=_zero_diffusion_dx,
        theta_interval=interval,
        x0=x0,
        horizon=horizon,
        kappa=sigma * sigma,
        growth_const=growth,
    )
    linear = None
    if name == "linear-constant-drift":
        linear = LinearModelSpec(sigma, beta, gamma, terminal, horizon)

    validate_model(model)
    driver = make_linear_driver(beta, gamma)
    return ModelBundle(name, model, driver, terminal, linear)
