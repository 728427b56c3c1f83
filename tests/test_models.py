import warnings

import numpy as np
import numpy.testing as npt
import pytest

from snbsde.errors import (IntegrationDivergedError, ModelValidationError,
                           SimulationDivergedError)
from snbsde.grids import NoiseSource, TimeGrid
from snbsde.models import (ModelSpec, broadcast_eval, rk4_sensitivity, simulate_forward,
                           solve_limit_ode, validate_model, _rk4_values)
from snbsde.presets import build_preset

# exp(0.5), flow of xdot = 0.5 x from x0 = 1 at t = 1, derived independently
EXP_HALF = 1.6487212707001282


def test_broadcast_eval_scalar_and_array():
    assert broadcast_eval(3.0, (4,)).shape == (4,)
    npt.assert_array_equal(broadcast_eval(np.arange(4.0), (4,)), np.arange(4.0))


def test_rk4_flow_exponential_oracle():
    b = build_preset("linear-ou")
    grid = TimeGrid(0.0, 1.0, 1000)
    flow = solve_limit_ode(b.model, 0.5, grid)
    assert abs(flow.values[-1] - EXP_HALF) < 1e-9


def test_rk4_flow_constant_drift_exact():
    b = build_preset("linear-constant-drift")
    grid = TimeGrid(0.0, 1.0, 100)
    flow = solve_limit_ode(b.model, 1.3, grid)
    npt.assert_allclose(flow.values, 1.3 * grid.times, rtol=0, atol=1e-12)


def test_simulation_zero_noise_matches_flow():
    b = build_preset("linear-ou")
    grid = TimeGrid(0.0, 1.0, 2000)
    X, W = simulate_forward(b.model, 0.5, 0.0, grid, NoiseSource(1, 0))
    flow = solve_limit_ode(b.model, 0.5, grid)
    # Euler against RK4, first order in h
    assert np.max(np.abs(X.values - flow.values)) < 5e-4
    assert np.all(W.values[0] == 0.0)


def test_simulation_noise_scale():
    b = build_preset("linear-constant-drift")
    grid = TimeGrid(0.0, 1.0, 500)
    X, W = simulate_forward(b.model, 1.0, 0.05, grid, NoiseSource(11, 2))
    npt.assert_allclose(X.values, grid.times + 0.05 * W.values, atol=1e-12)


def test_simulation_divergence_guard():
    def hot(theta, t, x):
        return theta * x**3

    def hot_dtheta(theta, t, x):
        return x**3

    model = ModelSpec(
        drift=hot, drift_dtheta=hot_dtheta,
        drift_dx=lambda th, t, x: 3.0 * th * x**2,
        drift_dtheta_dx=lambda th, t, x: 3.0 * x**2,
        diffusion=lambda t, x: 1.0 + 0.0 * x,
        diffusion_dx=lambda t, x: 0.0 * x,
        theta_interval=(1.0, 10.0), x0=2.0, horizon=5.0,
        kappa=1.0, growth_const=1e6,
    )
    with pytest.raises(SimulationDivergedError) as err:
        simulate_forward(model, 8.0, 0.0, TimeGrid(0.0, 5.0, 5000), NoiseSource(1, 0))
    assert err.value.node_index is not None


def test_rk4_sensitivity_matches_central_difference():
    grid = TimeGrid(0.0, 0.1, 100)
    thetas = np.array([0.3, 0.8, 1.4])
    for name, params in (("linear-ou", {}), ("custom-pde", {"drift_shape": "sine"}),
                         ("custom-pde", {"drift_shape": "tanh"})):
        model = build_preset(name, params).model
        x, xdot = rk4_sensitivity(model, thetas, grid)
        # the flow is the plain RK4 flow, bit for bit
        assert np.array_equal(x, _rk4_values(model, thetas, grid))
        h = 1e-5
        fd = (_rk4_values(model, thetas + h, grid) - _rk4_values(model, thetas - h, grid)) / (2 * h)
        npt.assert_allclose(xdot, fd, rtol=1e-8, atol=1e-12)


def test_rk4_sensitivity_constant_drift_is_time():
    # xdot' = 1 from 0: the RK4 stages carry no discretization error, so the
    # sensitivity is t up to rounding and shares the flow's arithmetic at theta = 1
    model = build_preset("linear-constant-drift").model
    grid = TimeGrid(0.0, 1.0, 1000)
    x, xdot = rk4_sensitivity(model, np.array([0.4, 1.0, 1.6]), grid)
    for j in range(3):
        assert np.array_equal(xdot[:, j], x[:, 1])
    npt.assert_allclose(xdot[:, 0], grid.times, rtol=0, atol=1e-15)


def _cubic_model():
    # x' = theta x^3 from x0 = 1 blows up at t = 1 / (2 theta)
    return ModelSpec(
        drift=lambda th, t, x: th * x**3,
        drift_dtheta=lambda th, t, x: x**3,
        drift_dx=lambda th, t, x: 3.0 * th * x**2,
        drift_dtheta_dx=lambda th, t, x: 3.0 * x**2,
        diffusion=lambda t, x: 1.0 + 0.0 * x,
        diffusion_dx=lambda t, x: 0.0 * x,
        theta_interval=(0.1, 10.0), x0=1.0, horizon=1.0,
        kappa=1.0, growth_const=1e6,
    )


def test_rk4_divergence_reports_first_node_without_warnings():
    model = _cubic_model()
    grid = TimeGrid(0.0, 1.0, 100)
    # per-step reference: first node at which the theta = 8 lane is non-finite
    h = grid.h
    x, want = np.float64(1.0), None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(grid.n_steps):
            k1 = 8.0 * x**3
            k2 = 8.0 * (x + 0.5 * h * k1) ** 3
            k3 = 8.0 * (x + 0.5 * h * k2) ** 3
            k4 = 8.0 * (x + h * k3) ** 3
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(x):
                want = k + 1
                break
    assert want is not None
    thetas = np.array([0.2, 8.0, 0.4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (lambda: _rk4_values(model, thetas, grid),
                    lambda: _rk4_values(model, 8.0, grid),
                    lambda: rk4_sensitivity(model, thetas, grid)):
            with pytest.raises(IntegrationDivergedError) as err:
                run()
            assert err.value.node_index == want


def test_validate_model_passes_presets():
    for name in ("linear-constant-drift", "linear-ou", "custom-pde"):
        validate_model(build_preset(name).model)


def test_validate_model_catches_wrong_derivative():
    b = build_preset("linear-ou")
    broken = ModelSpec(
        drift=b.model.drift,
        drift_dtheta=lambda th, t, x: 2.0 * np.asarray(x, dtype=float),  # off by 2
        drift_dx=b.model.drift_dx,
        drift_dtheta_dx=b.model.drift_dtheta_dx,
        diffusion=b.model.diffusion,
        diffusion_dx=b.model.diffusion_dx,
        theta_interval=b.model.theta_interval,
        x0=b.model.x0, horizon=b.model.horizon,
        kappa=b.model.kappa, growth_const=b.model.growth_const,
    )
    with pytest.raises(ModelValidationError):
        validate_model(broken)


def test_validate_model_catches_diffusion_floor():
    b = build_preset("linear-constant-drift")
    broken = ModelSpec(
        drift=b.model.drift, drift_dtheta=b.model.drift_dtheta,
        drift_dx=b.model.drift_dx,
        drift_dtheta_dx=b.model.drift_dtheta_dx,
        diffusion=b.model.diffusion, diffusion_dx=b.model.diffusion_dx,
        theta_interval=b.model.theta_interval, x0=b.model.x0,
        horizon=b.model.horizon, kappa=4.0,  # declares floor above actual sigma^2
        growth_const=b.model.growth_const,
    )
    with pytest.raises(ModelValidationError):
        validate_model(broken)
