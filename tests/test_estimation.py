import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from snbsde import engine
from snbsde.bsde import approximate_bsde
from snbsde.errors import ConfigurationError, FlatObjectiveError, SingularInformationError
from snbsde.estimation import (EstimationWindow, fisher_information,
                               full_mle, limit_quantities,
                               mde_asymptotic_variance, mde_estimate,
                               one_step_mle, onestep_trace)
from snbsde.grids import NoiseSource, TimeGrid
from snbsde.models import ModelSpec, broadcast_eval, simulate_forward, solve_limit_ode
from snbsde.presets import build_preset
from snbsde.value_functions import LinearValueFunction

# int_0^1 exp(2*0.5*t) dt = e - 1, information of the proportional drift
# along its own flow from x0 = 1 at theta = 0.5
EXP_MINUS_ONE = 1.718281828459045

# limit variance of the window pilot for constant drift, 6 sigma^2/(5 delta)
# at sigma = 1, delta = 0.1
PILOT_LIMIT_VAR = 12.0


def _flat_model():
    # drift carries no theta dependence at all
    return ModelSpec(
        drift=lambda th, t, x: 1.0 + 0.0 * x + 0.0 * th,
        drift_dtheta=lambda th, t, x: 0.0 * x + 0.0 * th,
        drift_dx=lambda th, t, x: 0.0 * x + 0.0 * th,
        drift_dtheta_dx=lambda th, t, x: 0.0 * x + 0.0 * th,
        diffusion=lambda t, x: 1.0 + 0.0 * x,
        diffusion_dx=lambda t, x: 0.0 * x,
        theta_interval=(0.1, 1.9), x0=0.0, horizon=1.0,
        kappa=1.0, growth_const=2.0,
    )


def test_window_validation():
    with pytest.raises(ConfigurationError):
        EstimationWindow(0.0)


def test_mde_noiseless_recovery():
    for name, theta0 in (("linear-constant-drift", 0.73), ("linear-ou", 1.21),
                         ("custom-pde", 0.55)):
        b = build_preset(name)
        grid = TimeGrid(0.0, 1.0, 4000)
        X, _ = simulate_forward(b.model, theta0, 0.0, grid, NoiseSource(3, 0))
        est = mde_estimate(b.model, X, 0.1)
        # Euler path against RK4 flow keeps an O(h) bias at zero noise
        assert abs(est - theta0) < 5e-4


def test_mde_flat_objective():
    grid = TimeGrid(0.0, 1.0, 100)
    X, _ = simulate_forward(_flat_model(), 1.0, 0.0, grid, NoiseSource(3, 0))
    with pytest.raises(FlatObjectiveError):
        mde_estimate(_flat_model(), X, 0.1)


def test_fisher_constant_drift_exact():
    b = build_preset("linear-constant-drift")
    grid = TimeGrid(0.0, 1.0, 1000)
    flow = solve_limit_ode(b.model, 1.0, grid)
    prof = engine.fisher_profile_batch(b.model, np.array([1.0]), flow.values[None, :], grid)[0]
    npt.assert_allclose(prof, grid.times, rtol=0, atol=1e-12)
    assert fisher_information(b.model, 1.0, flow, 0.5) == pytest.approx(0.5)


def test_fisher_proportional_drift_oracle():
    b = build_preset("linear-ou")
    grid = TimeGrid(0.0, 1.0, 2000)
    flow = solve_limit_ode(b.model, 0.5, grid)
    info = fisher_information(b.model, 0.5, flow, 1.0)
    assert abs(info - EXP_MINUS_ONE) < 1e-6


def test_fisher_floor_raises():
    b = build_preset("linear-constant-drift")
    grid = TimeGrid(0.0, 1.0, 100)
    flow = solve_limit_ode(b.model, 1.0, grid)
    with pytest.raises(SingularInformationError):
        fisher_information(b.model, 1.0, flow, 0.0)


def test_score_tail_left_point_convention():
    b = build_preset("linear-constant-drift")
    grid = TimeGrid(0.0, 1.0, 4)
    X = np.array([[0.0, 0.3, 0.5, 0.6, 1.0]])
    # B = 1, increments sum to (X_t - X_delta) - theta (t - delta)
    got = engine.score_tail_profile_batch(b.model, np.array([1.2]), X, grid, 1)[0, -1]
    want = (1.0 - 0.3) - 1.2 * 0.75
    assert abs(got - want) < 1e-12


def test_score_head_constant_drift_algebra():
    # head = (X_delta - x0) - theta * delta for unit diffusion
    b = build_preset("linear-constant-drift")
    grid = TimeGrid(0.0, 1.0, 1000)
    X, _ = simulate_forward(b.model, 1.0, 0.05, grid, NoiseSource(9, 0))
    for theta in (0.3, 1.0, 1.7):
        got = engine.score_head_batch(b.model, np.array([theta]), X.values[None, :], grid,
                                      grid.node_index(0.1), 0.05)[0]
        want = X.values[100] - theta * 0.1
        assert abs(got - want) < 1e-10


def test_onestep_constant_drift_closed_form():
    b = build_preset("linear-constant-drift")
    grid = TimeGrid(0.0, 1.0, 1000)
    X, _ = simulate_forward(b.model, 1.0, 0.05, grid, NoiseSource(21, 0))
    trace = onestep_trace(b.model, 0.4, X, 0.1, 0.05)
    for t in (0.1, 0.5, 1.0):
        want = X.values[grid.node_index(t)] / t
        assert abs(trace.theta_onestep[trace.node_index(t)] - want) < 1e-10
    assert one_step_mle(b.model, 0.4, X, 0.1, 0.5, 0.05) == \
        trace.theta_onestep[trace.node_index(0.5)]


def test_onestep_pilot_independence():
    b = build_preset("linear-constant-drift")
    grid = TimeGrid(0.0, 1.0, 500)
    X, _ = simulate_forward(b.model, 1.0, 0.1, grid, NoiseSource(22, 0))
    vals = [one_step_mle(b.model, pilot, X, 0.1, 0.5, 0.1)
            for pilot in (0.15, 0.8, 1.5, 1.85)]
    assert max(vals) - min(vals) < 1e-10


def test_onestep_clamps_to_interval():
    b = build_preset("linear-constant-drift", {"theta_interval": (0.9, 1.1)})
    grid = TimeGrid(0.0, 1.0, 500)
    X, _ = simulate_forward(b.model, 1.0, 0.5, grid, NoiseSource(5, 0))
    trace = onestep_trace(b.model, 1.0, X, 0.1, 0.5)
    assert np.all(trace.theta_onestep >= 0.9 - 1e-12)
    assert np.all(trace.theta_onestep <= 1.1 + 1e-12)
    assert np.any(trace.clamped)


def test_full_mle_constant_drift_closed_form():
    b = build_preset("linear-constant-drift")
    grid = TimeGrid(0.0, 1.0, 1000)
    X, _ = simulate_forward(b.model, 1.0, 0.05, grid, NoiseSource(31, 0))
    est = full_mle(b.model, X, 1.0, 0.05)
    assert abs(est - X.values[-1] / 1.0) < 1e-12


@pytest.mark.parametrize("name", ["linear-constant-drift", "linear-ou", "custom-pde"])
def test_full_mle_matches_closed_form_discrete_mle(name):
    # every preset drift is theta times g(x) with sigma = 1, so the discrete
    # likelihood is quadratic with maximizer sum g DX / sum g^2 h
    b = build_preset(name)
    grid = TimeGrid(0.0, 1.0, 1000)
    X, _ = simulate_forward(b.model, 0.8, 0.05, grid, NoiseSource(32, 0))
    xk = X.values[:-1]
    # a coefficient may return a scalar; the sums need one value per step
    g = broadcast_eval(b.model.drift_dtheta(1.0, X.times[:-1], xk), xk.shape)
    want = np.sum(g * np.diff(X.values)) / np.sum(g * g * grid.h)
    assert b.model.contains_theta(want)
    assert abs(full_mle(b.model, X, 1.0, 0.05) - want) <= 1e-12


def test_full_mle_flat_raises():
    grid = TimeGrid(0.0, 1.0, 100)
    X, _ = simulate_forward(_flat_model(), 1.0, 0.1, grid, NoiseSource(3, 0))
    with pytest.raises(FlatObjectiveError):
        full_mle(_flat_model(), X, 1.0, 0.1)


def test_full_mle_nan_candidate_raises():
    # a drift that is NaN at the first scan candidate leaves the likelihood
    # without a usable spread, rather than handing back a NaN estimate
    lo = 0.1
    model = dataclasses.replace(
        _flat_model(), drift=lambda th, t, x: np.where(th == lo, np.nan, th) + 0.0 * x,
        drift_dtheta=lambda th, t, x: 1.0 + 0.0 * x + 0.0 * th)
    assert model.theta_interval[0] == lo
    grid = TimeGrid(0.0, 1.0, 100)
    X, _ = simulate_forward(model, 1.0, 0.1, grid, NoiseSource(3, 0))
    with pytest.raises(FlatObjectiveError):
        full_mle(model, X, 1.0, 0.1)


def test_pilot_limit_variance_oracle():
    b = build_preset("linear-constant-drift")
    got = mde_asymptotic_variance(b.model, 1.0, 0.1)
    assert abs(got - PILOT_LIMIT_VAR) < 1e-7
    # never better than the likelihood limit on the same window
    grid = TimeGrid(0.0, 0.1, 500)
    flow = solve_limit_ode(b.model, 1.0, grid)
    info = fisher_information(b.model, 1.0, flow, 0.1)
    assert got >= 1.0 / info


def test_pilot_limit_variance_scales_with_sigma():
    b = build_preset("linear-constant-drift", {"sigma": 2.0})
    got = mde_asymptotic_variance(b.model, 1.0, 0.1)
    assert abs(got - 4.0 * PILOT_LIMIT_VAR) < 4e-7


LIMIT_TIMES = (0.25, 0.5, 0.75)


def test_limit_pass_constant_drift_oracle():
    # I(theta0, t) = t / sigma^2 along any flow, and D^2 = 6 sigma^2 / (5 delta)
    for sigma in (1.0, 2.0):
        b = build_preset("linear-constant-drift", {"sigma": sigma})
        for delta in (None, 0.1):
            lim = limit_quantities(b.model, 1.0, delta, LIMIT_TIMES)
            npt.assert_array_equal(lim.times, LIMIT_TIMES)
            npt.assert_allclose(lim.info, np.array(LIMIT_TIMES) / sigma**2, rtol=1e-10, atol=0)
            npt.assert_allclose(lim.x, np.array(LIMIT_TIMES), rtol=1e-10, atol=0)
        assert abs(lim.d2 - PILOT_LIMIT_VAR * sigma**2) < 1e-7 * sigma**2


def test_limit_pass_linear_ou_oracle():
    # S = theta x from x0 = 1 with sigma = 1: x_t = e^{theta t} and
    # I(theta, t) = (e^{2 theta t} - 1) / (2 theta)
    b = build_preset("linear-ou")
    t = np.array(LIMIT_TIMES)
    for theta in (0.5, 1.0):
        for delta in (None, 0.1):
            lim = limit_quantities(b.model, theta, delta, t[::-1])
            npt.assert_allclose(lim.x, np.exp(theta * t[::-1]), rtol=1e-10, atol=0)
            npt.assert_allclose(lim.info, np.expm1(2.0 * theta * t[::-1]) / (2.0 * theta),
                                rtol=1e-10, atol=0)
    assert lim.index(0.5) == 1
    with pytest.raises(ConfigurationError):
        lim.index(0.3)
    with pytest.raises(ConfigurationError):
        limit_quantities(b.model, 0.5, 0.3, t)
    assert limit_quantities(b.model, 0.5, None, t).d2 is None


def test_scalar_api_reads_a_shared_table():
    b = build_preset("linear-ou")
    grid = TimeGrid(0.0, 1.0, 500)
    X, _ = simulate_forward(b.model, 0.5, 0.05, grid, NoiseSource(41, 0))
    table = engine.ThetaTable(b.model, grid, 0.1)
    pilot = mde_estimate(b.model, X, 0.1, table=table)
    assert pilot == mde_estimate(b.model, X, 0.1)
    assert one_step_mle(b.model, pilot, X, 0.1, 0.5, 0.05, table=table) == \
        one_step_mle(b.model, pilot, X, 0.1, 0.5, 0.05)
    with pytest.raises(ConfigurationError):
        onestep_trace(b.model, pilot, X, 0.2, 0.05, table=table)


def test_error_limit_factor_constant_drift():
    # xi_t = W_t / t for unit diffusion constant drift
    b = build_preset("linear-constant-drift")
    grid = TimeGrid(0.0, 1.0, 1000)
    _, W = simulate_forward(b.model, 1.0, 0.05, grid, NoiseSource(13, 0))
    i = grid.node_index(0.5)
    _, xi, _ = engine.simulate_batch(b.model, 1.0, 0.05, grid, 13, [0],
                                     limit=engine.limit_weights(b.model, 1.0, grid),
                                     xi_nodes=[i])
    # left-point sum of dW equals W_t exactly on the grid
    assert xi.shape == (1, 1)
    assert abs(xi[0, 0] - W.values[i] / 0.5) < 1e-12


def _info_free_model():
    # S = max(theta - 1, 0)^2 moves the flow only for theta > 1, so from a
    # resting path the window objective is lowest, and has no slope, on
    # theta <= 1: the pilot lands at the lower end, where S_theta and with
    # it the information vanish
    return ModelSpec(
        drift=lambda th, t, x: np.maximum(th - 1.0, 0.0) ** 2 + 0.0 * x,
        drift_dtheta=lambda th, t, x: 2.0 * np.maximum(th - 1.0, 0.0) + 0.0 * x,
        drift_dx=lambda th, t, x: 0.0 * x + 0.0 * th,
        drift_dtheta_dx=lambda th, t, x: 0.0 * x + 0.0 * th,
        diffusion=lambda t, x: 1.0 + 0.0 * x,
        diffusion_dx=lambda t, x: 0.0 * x,
        theta_interval=(0.1, 1.9), x0=0.0, horizon=1.0,
        kappa=1.0, growth_const=2.0,
    )


def _flag_case(flag):
    """(model, X, W, epsilon) whose one-row engine pass raises the given flag."""
    grid = TimeGrid(0.0, 1.0, 200)
    if flag == "flat":
        model, theta0, eps = _flat_model(), 1.0, 0.1
    else:
        model, theta0, eps = _info_free_model(), 0.5, 0.0
    X, W = simulate_forward(model, theta0, eps, grid, NoiseSource(9, 0))
    return model, X, W, eps


_FLAG_ERRORS = {"flat": FlatObjectiveError, "info_bad": SingularInformationError}

_VIEWS = {
    "approximate_bsde": lambda model, X, W, eps: approximate_bsde(
        model, LinearValueFunction(build_preset("linear-constant-drift").linear, eps),
        X, W, EstimationWindow(0.1), eps),
    # the one-step views take the pilot, so they run behind the scalar pilot
    "onestep_trace": lambda model, X, W, eps: onestep_trace(
        model, mde_estimate(model, X, 0.1), X, 0.1, eps),
    "one_step_mle": lambda model, X, W, eps: one_step_mle(
        model, mde_estimate(model, X, 0.1), X, 0.1, 0.5, eps),
}


@pytest.mark.parametrize("view", sorted(_VIEWS))
@pytest.mark.parametrize("flag", sorted(_FLAG_ERRORS))
def test_engine_flags_reach_their_exceptions(flag, view):
    model, X, W, eps = _flag_case(flag)
    # the engine itself raises nothing: it flags the row
    theta, flat = engine.pilot_batch(model, X.values[None, :], X.grid, 0.1)
    info = engine.fisher_profile_batch(model, theta, engine.flow_batch(model, theta, X.grid),
                                       X.grid)
    flags = {"flat": flat[0], "info_bad": info[0, -1] < engine.INFO_FLOOR}
    assert flags[flag]
    with pytest.raises(_FLAG_ERRORS[flag]):
        _VIEWS[view](model, X, W, eps)
