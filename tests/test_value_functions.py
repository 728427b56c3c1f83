import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from snbsde.errors import ConfigurationError, EvaluationError, IntegrationDivergedError
from snbsde.models import ModelSpec
from snbsde.presets import TERMINALS, build_preset, linear_driver
from snbsde.value_functions import (LinearModelSpec, LinearValueFunction,
                                    TerminalCondition,
                                    characteristics_limit_value,
                                    gauss_hermite_expectation)


def _linear_spec(terminal="cosine", sigma=1.0, beta=0.1, gamma=0.2):
    return LinearModelSpec(sigma=sigma, beta=beta, gamma=gamma,
                           terminal=TERMINALS[terminal], horizon=1.0)


def _both_paths(spec):
    """spec as given (closed-form expectations) and a copy priced by Gauss-Hermite."""
    gh = dataclasses.replace(spec.terminal, expectations=None)
    return spec, dataclasses.replace(spec, terminal=gh)


def test_gauss_hermite_second_moment():
    mu = np.array([0.0, -1.5, 2.0])
    sd = np.array([1.0, 0.3, 2.5])
    got = gauss_hermite_expectation(lambda v: v**2, mu, sd)
    npt.assert_allclose(got, mu**2 + sd**2, rtol=1e-12)


def test_gauss_hermite_cosine():
    # E[cos N] = exp(-sd^2 / 2) cos(mu)
    mu, sd = 0.7, 1.3
    got = gauss_hermite_expectation(np.cos, mu, sd)
    assert abs(got - np.exp(-sd**2 / 2) * np.cos(mu)) < 1e-10


def test_gauss_hermite_batch_independence():
    # per-element convergence: a value must not depend on its batch mates
    alone = gauss_hermite_expectation(np.cos, 0.4, 0.8)
    batched = gauss_hermite_expectation(np.cos, [0.4, 3.0], [0.8, 4.0])
    assert batched[0] == alone


def test_gauss_hermite_nonfinite_rejected():
    bad = lambda v: np.where(np.abs(v) > 2.0, np.inf, v)
    with pytest.raises(EvaluationError):
        gauss_hermite_expectation(bad, 0.0, 3.0)


def test_terminal_growth_declaration_checked():
    with pytest.raises(ConfigurationError):
        TerminalCondition("too-tight", lambda x: x**2, lambda x: 2 * x,
                          lambda x: 0 * x + 2.0, 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        TerminalCondition("blows-up", lambda x: np.where(np.abs(x) > 5, np.inf, x),
                          lambda x: 0 * x + 1.0, lambda x: 0 * x, 1.0, 1.0)


def test_linear_spec_validation():
    good = _linear_spec()
    for field, value in (("sigma", 0.0), ("horizon", -1.0)):
        kwargs = dict(sigma=good.sigma, beta=good.beta, gamma=good.gamma,
                      terminal=good.terminal, horizon=good.horizon)
        kwargs[field] = value
        with pytest.raises(ConfigurationError):
            LinearModelSpec(**kwargs)
    with pytest.raises(ConfigurationError):
        LinearValueFunction(good, -0.1)


def test_value_matches_terminal_at_horizon():
    for name in ("identity", "square", "cosine"):
        for spec in _both_paths(_linear_spec(name)):
            vf = LinearValueFunction(spec, 0.3)
            for x in (-1.2, 0.0, 2.5):
                assert vf.value(1.0, x, 0.5) == TERMINALS[name].f(x)


def test_identity_terminal_closed_form():
    eps = 0.25
    for spec in _both_paths(_linear_spec("identity")):
        vf = LinearValueFunction(spec, eps)
        t, x, theta = 0.3, 1.1, 0.8
        tau = spec.horizon - t
        want = np.exp(spec.beta * tau) * (x + (theta + eps * spec.sigma * spec.gamma) * tau)
        assert abs(vf.value(t, x, theta) - want) < 1e-12
        # theta-derivative of the identity case is tau e^{beta tau}, state free
        assert abs(vf.value_theta(0.5, x, theta) - 0.5 * np.exp(0.05)) < 1e-12
        assert abs(vf.value_theta(0.5, x, theta) - 0.525635548188) < 1e-9


def test_square_terminal_closed_form():
    eps = 0.2
    for spec in _both_paths(_linear_spec("square")):
        vf = LinearValueFunction(spec, eps)
        t, x, theta = 0.4, -0.7, 1.2
        tau = spec.horizon - t
        m = x + (theta + eps * spec.sigma * spec.gamma) * tau
        want = np.exp(spec.beta * tau) * (m**2 + eps**2 * spec.sigma**2 * tau)
        assert abs(vf.value(t, x, theta) - want) < 1e-11


def test_cosine_terminal_closed_form():
    eps = 0.15
    for spec in _both_paths(_linear_spec("cosine")):
        vf = LinearValueFunction(spec, eps)
        t, x, theta = 0.25, 0.6, 0.9
        tau = spec.horizon - t
        var = eps**2 * spec.sigma**2 * tau
        m = x + (theta + eps * spec.sigma * spec.gamma) * tau
        want = np.exp(spec.beta * tau) * np.exp(-var / 2) * np.cos(m)
        assert abs(vf.value(t, x, theta) - want) < 1e-10


def test_derivatives_against_finite_differences():
    for spec in _both_paths(_linear_spec("cosine")):
        vf = LinearValueFunction(spec, 0.2)
        t, x, theta = 0.35, 0.4, 1.1
        h = 1e-5
        fd_x = (vf.value(t, x + h, theta) - vf.value(t, x - h, theta)) / (2 * h)
        assert abs(vf.value_x(t, x, theta) - fd_x) < 1e-7
        fd_th = (vf.value(t, x, theta + h) - vf.value(t, x, theta - h)) / (2 * h)
        assert abs(vf.value_theta(t, x, theta) - fd_th) < 1e-7
        fd_thx = (vf.value_x(t, x, theta + h) - vf.value_x(t, x, theta - h)) / (2 * h)
        assert abs(vf.value_theta_x(t, x, theta) - fd_thx) < 1e-7


@pytest.mark.parametrize("terminal,quadrature", [("identity", False), ("square", False),
                                                 ("cosine", False), ("cosine", True)],
                         ids=["identity", "square", "cosine", "cosine-quadrature"])
def test_time_row_arguments_match_the_full_broadcast(terminal, quadrature):
    # the engine passes one row of times, (M, K) states and a scalar theta;
    # every method must return, bit for bit, what it returns on arguments
    # broadcast to (M, K) beforehand, the t = T columns included wherever
    # they sit in the row
    spec = _both_paths(_linear_spec(terminal))[quadrature]
    vf = LinearValueFunction(spec, 0.3)
    x = np.random.default_rng(5).normal(size=(6, 4))
    theta = 0.8
    for t in (np.array([[0.0, 0.37, 0.9, 1.0]]), np.array([[1.0, 0.37, 1.0, 0.9]])):
        full = [np.ascontiguousarray(np.broadcast_to(v, x.shape)) for v in (t, x, theta)]
        for name in ("value", "value_x", "value_theta", "value_theta_x"):
            got = getattr(vf, name)(t, x, theta)
            assert got.shape == x.shape, name
            assert got.tobytes() == getattr(vf, name)(*full).tobytes(), (name, t)


def test_wrong_closed_form_declaration_rejected():
    # the sign of E[-sin N] flipped: caught by the spot check against quadrature
    cosine = TERMINALS["cosine"]
    e0, e1, e2 = cosine.expectations
    with pytest.raises(ConfigurationError):
        dataclasses.replace(cosine, expectations=(e0, lambda m, s: -e1(m, s), e2))


def test_nonfinite_closed_form_rejected():
    # correct where the spot check looks, infinite far away from it
    identity = TERMINALS["identity"]
    blows_up = dataclasses.replace(
        identity, expectations=(lambda m, s: np.where(np.abs(m) > 50.0, np.inf, m),
                                *identity.expectations[1:]))
    vf = LinearValueFunction(dataclasses.replace(_linear_spec(), terminal=blows_up), 0.2)
    assert np.isfinite(vf.value(0.5, 1.0, 1.0))
    with pytest.raises(EvaluationError):
        vf.value(0.5, [1.0, 100.0], 1.0)


def test_limit_is_small_epsilon_value():
    spec = _linear_spec("cosine")
    tiny = LinearValueFunction(spec, 1e-7)
    limit = LinearValueFunction(spec, 0.3)  # the limit ignores epsilon
    t, x, theta = 0.3, 0.8, 1.4
    # u0 = e^{beta tau} cos(x + theta tau) along the limit flow, and u0_x
    tau = 1.0 - t
    assert abs(tiny.value(t, x, theta) - np.exp(0.1 * tau) * np.cos(x + theta * tau)) < 1e-6
    assert abs(tiny.value_x(t, x, theta) + np.exp(0.1 * tau) * np.sin(x + theta * tau)) < 1e-6
    udot, udot_x = limit.limit_theta_derivatives(t, x, theta)
    assert abs(tiny.value_theta(t, x, theta) - udot) < 1e-6
    assert abs(tiny.value_theta_x(t, x, theta) - udot_x) < 1e-6


def test_characteristics_match_linear_limit():
    b = build_preset("linear-constant-drift", {"terminal": "cosine"})
    for t, x, theta in ((0.0, 0.0, 0.5), (0.4, 1.3, 1.1), (0.9, -0.6, 1.8)):
        got = characteristics_limit_value(b.model, b.driver, TERMINALS["cosine"].f,
                                          t, x, theta)
        # u0 = e^{beta tau} Phi(x + theta tau), the closed-form limit
        assert abs(got - np.exp(0.1 * (1.0 - t)) * np.cos(x + theta * (1.0 - t))) < 1e-10


def test_characteristics_nonlinear_flow():
    # proportional drift: x_s = x e^{theta (s - t)}, y = e^{beta tau} Phi(x_T)
    b = build_preset("linear-ou", {"terminal": "square"})
    t, x, theta = 0.2, 0.7, 0.9
    tau = b.model.horizon - t
    want = np.exp(0.1 * tau) * (x * np.exp(theta * tau)) ** 2
    got = characteristics_limit_value(b.model, b.driver, TERMINALS["square"].f,
                                      t, x, theta)
    assert abs(got - want) < 1e-9


def test_characteristics_transport_divergence_is_a_runtime_failure():
    # y' = -f = -y^3 backward from y(T) = Phi(x_T) = 16 blows up within
    # 1/512 of T, inside the first backward step: a numerical failure, not a
    # configuration error
    b = build_preset("linear-constant-drift", {"terminal": "square"})
    with pytest.raises(IntegrationDivergedError):
        characteristics_limit_value(b.model, lambda t, x, y, z: y**3, TERMINALS["square"].f,
                                    0.0, 3.0, 1.0)


def test_characteristics_lanes_start_at_their_own_times():
    # S = theta (1 + t) and f = t y: x_T = x + theta ((T - t) + (T^2 - t^2) / 2)
    # and u0 = exp((T^2 - t^2) / 2) Phi(x_T).  Each lane marches on its own
    # time grid, so it equals its single-lane call bit for bit; a lane at T
    # reads Phi(x).  Measured largest miss of the closed form: 1.2e-13
    zero = lambda th, t, x: 0.0
    model = ModelSpec(drift=lambda th, t, x: th * (1.0 + t), drift_dtheta=zero,
                      drift_dx=zero, drift_dtheta_dx=zero,
                      diffusion=lambda t, x: 1.0, diffusion_dx=lambda t, x: 0.0,
                      theta_interval=(0.1, 1.9), x0=0.0, horizon=1.0, kappa=1.0,
                      growth_const=2.0)
    driver = lambda t, x, y, z: t * y
    t = np.array([0.0, 0.3, 1.0, 0.3, 0.85])
    x = np.array([0.2, -0.5, 0.4, 1.1, 0.0])
    theta = np.array([1.0, 0.7, 1.3, 1.2, 0.5])
    got = characteristics_limit_value(model, driver, np.cos, t, x, theta)
    for k in range(t.size):
        assert got[k] == characteristics_limit_value(model, driver, np.cos, t[k], x[k], theta[k])
    exact = np.exp((1.0 - t**2) / 2.0) * np.cos(x + theta * ((1.0 - t) + (1.0 - t**2) / 2.0))
    assert np.max(np.abs(got - exact)) < 1e-12


def test_characteristics_horizon_edge():
    b = build_preset("linear-ou")
    assert characteristics_limit_value(b.model, b.driver, TERMINALS["identity"].f,
                                       1.0, 0.4, 0.5) == 0.4
    with pytest.raises(ConfigurationError):
        characteristics_limit_value(b.model, b.driver, TERMINALS["identity"].f,
                                    1.5, 0.4, 0.5)
