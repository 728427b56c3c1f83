import numpy as np
import numpy.testing as npt
import pytest

from snbsde import engine
from snbsde.engine import _primitive_batch
from snbsde.errors import (ConfigurationError, FlatObjectiveError, QuadratureError,
                           SingularInformationError)
from snbsde.estimation import (EstimationWindow, fisher_information,
                               fisher_profile, full_mle,
                               mde_asymptotic_variance, mde_estimate,
                               one_step_mle, onestep_error_limit,
                               onestep_trace, scan_then_golden, score_head,
                               score_tail)
from snbsde.grids import NoiseSource, Path, TimeGrid, brownian_path
from snbsde.models import ModelSpec, simulate_forward, solve_limit_ode
from snbsde.presets import build_preset

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
        drift_ddtheta=lambda th, t, x: 0.0 * x + 0.0 * th,
        drift_dx=lambda th, t, x: 0.0 * x + 0.0 * th,
        drift_dtheta_dx=lambda th, t, x: 0.0 * x + 0.0 * th,
        diffusion=lambda t, x: 1.0 + 0.0 * x,
        diffusion_dx=lambda t, x: 0.0 * x,
        theta_interval=(0.1, 1.9), x0=0.0, horizon=1.0,
        kappa=1.0, growth_const=2.0,
    )


def test_scan_then_golden_quadratic():
    target = 1.2345678
    found = scan_then_golden(lambda th: (th - target) ** 2, 0.0, 2.0)
    assert abs(found - target) < 5e-8


def test_scan_then_golden_flat_raises():
    with pytest.raises(FlatObjectiveError):
        scan_then_golden(lambda th: 3.0, 0.0, 2.0)


def test_window_validation():
    with pytest.raises(ConfigurationError):
        EstimationWindow(0.0)
    with pytest.raises(ConfigurationError):
        EstimationWindow(0.2, (0.1,))


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
    prof = fisher_profile(b.model, 1.0, flow)
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


def test_score_primitive_proportional_oracle():
    # B = x/sigma^2 integrates to (x^2 - x0^2)/2 for sigma = 1, and below the
    # start point the sign flips with the orientation
    b = build_preset("linear-ou")
    x = np.array([2.5, 0.5])
    vals, failed = _primitive_batch(b.model, np.full(2, 0.7), 0.3, x)
    assert not np.any(failed)
    npt.assert_allclose(vals, 0.5 * (x**2 - 1.0), rtol=0, atol=1e-9)


def test_score_tail_left_point_convention():
    b = build_preset("linear-constant-drift")
    grid = TimeGrid(0.0, 1.0, 4)
    X = Path(grid, np.array([0.0, 0.3, 0.5, 0.6, 1.0]))
    # B = 1, increments sum to (X_t - X_delta) - theta (t - delta)
    got = score_tail(b.model, 1.2, X, 0.25, 1.0)
    want = (1.0 - 0.3) - 1.2 * 0.75
    assert abs(got - want) < 1e-12


def test_score_head_constant_drift_algebra():
    # head = (X_delta - x0) - theta * delta for unit diffusion
    b = build_preset("linear-constant-drift")
    grid = TimeGrid(0.0, 1.0, 1000)
    X, _ = simulate_forward(b.model, 1.0, 0.05, grid, NoiseSource(9, 0))
    for theta in (0.3, 1.0, 1.7):
        got = score_head(b.model, theta, X, 0.1, 0.05)
        want = X.values[100] - theta * 0.1
        assert abs(got - want) < 1e-10


def test_score_head_raises_when_quadrature_fails(monkeypatch):
    # the scalar score is the engine's at one row; a row the engine flags raises
    real = engine.vector_simpson
    monkeypatch.setattr(engine, "vector_simpson",
                        lambda fn, n_rows: real(fn, n_rows, max_levels=0))
    b = build_preset("custom-pde")
    grid = TimeGrid(0.0, 1.0, 200)
    X, _ = simulate_forward(b.model, 0.8, 0.05, grid, NoiseSource(9, 0))
    _, failed = engine.score_head_batch(b.model, np.array([0.8]), X.values[None, :],
                                        grid, 20, 0.05)
    assert failed[0]
    with pytest.raises(QuadratureError):
        score_head(b.model, 0.8, X, 0.1, 0.05)


def test_onestep_constant_drift_closed_form():
    b = build_preset("linear-constant-drift")
    grid = TimeGrid(0.0, 1.0, 1000)
    X, _ = simulate_forward(b.model, 1.0, 0.05, grid, NoiseSource(21, 0))
    trace = onestep_trace(b.model, 0.4, X, 0.1, 0.05)
    for t in (0.1, 0.5, 1.0):
        want = X.at(t) / t
        assert abs(trace.at(t) - want) < 1e-10
    assert one_step_mle(b.model, 0.4, X, 0.1, 0.5, 0.05) == trace.at(0.5)


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
    assert abs(est - X.values[-1] / 1.0) < 5e-8


def test_pilot_limit_variance_oracle():
    b = build_preset("linear-constant-drift")
    got = mde_asymptotic_variance(b.model, 1.0, 0.1)
    assert abs(got - PILOT_LIMIT_VAR) < 1e-4
    # never better than the likelihood limit on the same window
    grid = TimeGrid(0.0, 0.1, 500)
    flow = solve_limit_ode(b.model, 1.0, grid)
    info = fisher_information(b.model, 1.0, flow, 0.1)
    assert got >= 1.0 / info


def test_pilot_limit_variance_scales_with_sigma():
    b = build_preset("linear-constant-drift", {"sigma": 2.0})
    got = mde_asymptotic_variance(b.model, 1.0, 0.1)
    assert abs(got - 4.0 * PILOT_LIMIT_VAR) < 4e-4


def test_error_limit_factor_constant_drift():
    # xi_t = W_t / t for unit diffusion constant drift
    b = build_preset("linear-constant-drift")
    grid = TimeGrid(0.0, 1.0, 1000)
    W = brownian_path(NoiseSource(13, 0), grid)
    xi = onestep_error_limit(b.model, 1.0, W, 0.5)
    # left-point sum of dW equals W_t exactly on the grid
    assert abs(xi - W.at(0.5) / 0.5) < 1e-12
