import dataclasses
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from snbsde.errors import (IntegrationDivergedError, ModelValidationError,
                           SimulationDivergedError)
from snbsde.estimation import LIMIT_TAIL_STEPS, LIMIT_WINDOW_STEPS, limit_quantities
from snbsde.grids import NoiseSource, TimeGrid
from snbsde.models import (ModelSpec, broadcast_eval, finite_or_raise, flow_ode, rk4,
                           sensitivity_ode, simulate_forward, solve_limit_ode,
                           validate_model)
from snbsde.presets import build_preset

# exp(0.5), flow of xdot = 0.5 x from x0 = 1 at t = 1, derived independently
EXP_HALF = 1.6487212707001282


def _flow(model, theta, grid):
    """RK4 limit flow, raising IntegrationDivergedError at a non-finite node."""
    return finite_or_raise(rk4(*flow_ode(model, theta), grid), grid)


def _sensitivity(model, theta, grid):
    """(x, xdot) of the RK4 flow and its theta-derivative, raising as _flow."""
    y = finite_or_raise(rk4(*sensitivity_ode(model, theta), grid), grid)
    return y[:, 0], y[:, 1]


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
        x, xdot = _sensitivity(model, thetas, grid)
        # the flow is the plain RK4 flow, bit for bit
        assert np.array_equal(x, _flow(model, thetas, grid))
        h = 1e-5
        fd = (_flow(model, thetas + h, grid) - _flow(model, thetas - h, grid)) / (2 * h)
        npt.assert_allclose(xdot, fd, rtol=1e-8, atol=1e-12)


def test_rk4_sensitivity_constant_drift_is_time():
    # xdot' = 1 from 0: the RK4 stages carry no discretization error, so the
    # sensitivity is t up to rounding and shares the flow's arithmetic at theta = 1
    model = build_preset("linear-constant-drift").model
    grid = TimeGrid(0.0, 1.0, 1000)
    x, xdot = _sensitivity(model, np.array([0.4, 1.0, 1.6]), grid)
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
        for run in (lambda: _flow(model, thetas, grid),
                    lambda: _flow(model, 8.0, grid),
                    lambda: _sensitivity(model, thetas, grid)):
            with pytest.raises(IntegrationDivergedError) as err:
                run()
            assert err.value.node_index == want


# x' = theta x^2 + t from x0 = 1: time-dependent, blows up before t = 1 / theta,
# and built from +, - and * only, so its lanes and a scalar loop round alike
RICCATI = ModelSpec(
    drift=lambda th, t, x: th * x * x + t,
    drift_dtheta=lambda th, t, x: x * x,
    drift_dx=lambda th, t, x: 2.0 * th * x,
    drift_dtheta_dx=lambda th, t, x: 2.0 * x,
    diffusion=lambda t, x: 1.0 + t,
    diffusion_dx=lambda t, x: 0.0,
    theta_interval=(0.1, 10.0), x0=1.0, horizon=1.0, kappa=1.0, growth_const=1e6,
)


def _rk4_by_hand(f, y, grid):
    """Classical RK4 of y' = f(t, y) on a tuple of scalars, one step at a time
    in the order models.rk4 documents; the states at the grid nodes."""
    h, out = grid.h, [y]
    for t in grid.times[:-1]:
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, tuple(a + 0.5 * h * b for a, b in zip(y, k1)))
        k3 = f(t + 0.5 * h, tuple(a + 0.5 * h * b for a, b in zip(y, k2)))
        k4 = f(t + h, tuple(a + h * b for a, b in zip(y, k3)))
        y = tuple(a + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                  for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))
        out.append(y)
    return np.array(out)


def test_rk4_matches_a_scalar_loop_bit_for_bit():
    m = RICCATI
    grid = TimeGrid(0.0, 1.0, 100)
    # the stage times are the grid times plus h/2 and h
    seen, h = [], grid.h
    rk4(lambda t, y: seen.append(t) or y, 0.0, grid)
    assert seen == [s for t in grid.times[:-1] for s in (t, t + 0.5 * h, t + 0.5 * h, t + h)]
    thetas = np.array([0.1, 0.3, 0.5])
    flows = rk4(*flow_ode(m, thetas), grid)
    sens = rk4(*sensitivity_ode(m, thetas), grid)
    assert flows.shape == (101, 3) and sens.shape == (101, 2, 3)
    for j, th in enumerate(thetas):
        want = _rk4_by_hand(lambda t, y: (m.drift(th, t, y[0]),), (1.0,), grid)
        assert np.array_equal(flows[:, j], want[:, 0])
        want = _rk4_by_hand(lambda t, y: (m.drift(th, t, y[0]), m.drift_dx(th, t, y[0]) * y[1]
                                          + m.drift_dtheta(th, t, y[0])), (1.0, 0.0), grid)
        assert np.array_equal(sens[:, :, j], want)

    # the six-state theta0 pass of limit_quantities: x, xdot, log psi and the
    # running integrals c, q and I, on [0, delta] and then on [delta, T]
    th0 = 0.3

    def limit_rhs(t, y):
        x, xdot = y[0], y[1]
        sx, sth = m.drift_dx(th0, t, x), m.drift_dtheta(th0, t, x)
        return (m.drift(th0, t, x), sx * xdot + sth, sx, np.exp(y[2]) * xdot, xdot * xdot,
                (sth / m.diffusion(t, x)) ** 2)

    y = tuple(np.float64(v) for v in (1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    for leg in (TimeGrid(0.0, 0.1, LIMIT_WINDOW_STEPS), TimeGrid(0.1, 1.0, LIMIT_TAIL_STEPS)):
        y = tuple(_rk4_by_hand(limit_rhs, y, leg)[-1])
    got = limit_quantities(m, th0, 0.1, (1.0,))
    assert got.x[0] == y[0] and got.info[0] == y[5]


def test_rk4_diverging_lane_leaves_the_others_bit_for_bit():
    grid = TimeGrid(0.0, 1.0, 100)
    for ode in (flow_ode, sensitivity_ode):
        together = rk4(*ode(RICCATI, np.array([0.1, 8.0, 0.5])), grid)
        alone = rk4(*ode(RICCATI, np.array([0.1, 0.5])), grid)
        assert not np.all(np.isfinite(together[-1, ..., 1]))
        assert np.all(np.isfinite(alone))
        assert np.array_equal(together[..., [0, 2]], alone)


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
    with pytest.raises(ModelValidationError, match="^drift_dtheta disagrees"):
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
    with pytest.raises(ModelValidationError, match="below declared floor kappa"):
        validate_model(broken)


# linear-ou (S = theta x, sigma = 1, L = 1.9 on theta in (0.1, 1.9), x on
# [-3, 5]) with one declaration broken, and the message of the check that
# must fire: L = 1 fails the drift growth bound first (|theta x| = 4.2 > 4
# at theta = 1.405, x = -3), while L = 1.6 passes it but not the Lipschitz
# bound (slope theta = 1.81 against 1.6)
BROKEN_OU = {
    "drift-growth": ({"growth_const": 1.0}, "^drift violates declared growth bound"),
    "diffusion-growth": ({"diffusion": lambda t, x: 10.0},
                         "^diffusion violates declared growth bound"),
    "lipschitz": ({"growth_const": 1.6}, "^drift violates declared Lipschitz bound in x"),
    "drift_dx": ({"drift_dx": lambda th, t, x: 2.0 * th}, "^drift_dx disagrees"),
    "drift_dtheta_dx": ({"drift_dtheta_dx": lambda th, t, x: 2.0},
                        "^drift_dtheta_dx disagrees"),
    "diffusion_dx": ({"diffusion_dx": lambda t, x: 1.0}, "^diffusion_dx disagrees"),
}


@pytest.mark.parametrize("check", sorted(BROKEN_OU))
def test_validate_model_names_the_check_that_fails(check):
    changes, message = BROKEN_OU[check]
    model = build_preset("linear-ou").model
    validate_model(model)
    with pytest.raises(ModelValidationError, match=message):
        validate_model(dataclasses.replace(model, **changes))
