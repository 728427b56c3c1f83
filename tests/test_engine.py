import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from snbsde.bsde import approximate_bsde, residual_decomposition
from snbsde.engine import run_batch, simulate_batch, vector_simpson
from snbsde.errors import ConfigurationError, SimulationDivergedError
from snbsde.estimation import EstimationWindow
from snbsde.grids import NoiseSource, TimeGrid
from snbsde.models import ModelSpec, simulate_forward
from snbsde.pde import PdeGrid, theta_derivatives_by_bundle
from snbsde.presets import build_preset
from snbsde.value_functions import LinearValueFunction

SEED = 4141


def _vf_for(bundle, epsilon):
    if bundle.linear is not None:
        return LinearValueFunction(bundle.linear, epsilon)
    grid = PdeGrid(-6.0, 6.0, 64, bundle.model.horizon, 50)
    return theta_derivatives_by_bundle(bundle.model, bundle.driver,
                                       bundle.terminal.f, 1.0, epsilon, grid)


@pytest.mark.parametrize("name,theta0", [("linear-constant-drift", 1.0),
                                         ("linear-ou", 0.5),
                                         ("custom-pde", 0.8)])
def test_batch_matches_scalar_pipeline(name, theta0):
    eps = 0.05
    b = build_preset(name)
    grid = TimeGrid(0.0, 1.0, 200)
    vf = _vf_for(b, eps)
    report = (0.5, 1.0)
    res = run_batch(b.model, vf, theta0, eps, grid, 0.1, report, SEED,
                    range(4), residuals=True)
    assert not np.any(res.failed)
    i = grid.node_index(0.1)
    rel = np.array([grid.node_index(t) for t in report]) - i
    for r in range(4):
        X, W = simulate_forward(b.model, theta0, eps, grid, NoiseSource(SEED, r))
        approx = approximate_bsde(b.model, vf, X, W, EstimationWindow(0.1), eps,
                                  theta0=theta0)
        dec = residual_decomposition(approx, b.model, vf, theta0, eps)
        assert abs(res.theta_pilot[r] - approx.trace.theta_pilot) < 1e-9
        npt.assert_allclose(res.theta_onestep[r], approx.trace.theta_onestep[rel],
                            rtol=0, atol=1e-9)
        npt.assert_allclose(res.y_hat[r], approx.y_hat.values[rel], rtol=0, atol=1e-9)
        npt.assert_allclose(res.z_hat[r], approx.z_hat.values[rel], rtol=0, atol=1e-9)
        npt.assert_allclose(res.y_true[r], approx.y_true.values[rel], rtol=0, atol=1e-9)
        npt.assert_allclose(res.xi[r], approx.error_limit.values[rel], rtol=0, atol=1e-9)
        npt.assert_allclose(res.r_y[r], dec.r_y.values[rel], rtol=0, atol=1e-7)
        npt.assert_allclose(res.r_z[r], dec.r_z.values[rel], rtol=0, atol=1e-7)


def test_batch_results_chunk_invariant():
    # splitting a block in two must reproduce every number bit for bit
    eps = 0.05
    b = build_preset("linear-constant-drift")
    grid = TimeGrid(0.0, 1.0, 200)
    vf = LinearValueFunction(b.linear, eps)
    kw = dict(plugin=True, residuals=True, sup_stride=3)
    whole = run_batch(b.model, vf, 1.0, eps, grid, 0.1, (0.5, 1.0), SEED,
                      range(10), **kw)
    lo = run_batch(b.model, vf, 1.0, eps, grid, 0.1, (0.5, 1.0), SEED,
                   range(5), **kw)
    hi = run_batch(b.model, vf, 1.0, eps, grid, 0.1, (0.5, 1.0), SEED,
                   range(5, 10), **kw)
    for field in ("theta_pilot", "theta_onestep", "y_hat", "z_hat", "y_plugin",
                  "xi", "r_y", "r_z", "terminal_abs_err", "sup_abs_y_err"):
        merged = np.concatenate((getattr(lo, field), getattr(hi, field)))
        assert np.array_equal(merged, getattr(whole, field)), field


def test_batch_closed_form_matches_gauss_hermite():
    # the preset's closed-form expectations against the Gauss-Hermite path
    eps = 0.1
    b = build_preset("linear-constant-drift", {"terminal": "cosine"})
    gh = dataclasses.replace(b.linear, terminal=dataclasses.replace(b.linear.terminal,
                                                                    expectations=None))
    grid = TimeGrid(0.0, 1.0, 100)
    kw = dict(plugin=True, residuals=True, sup_stride=3)
    closed = run_batch(b.model, LinearValueFunction(b.linear, eps), 1.0, eps, grid, 0.1,
                       (0.5, 0.9), SEED, range(6), **kw)
    quad = run_batch(b.model, LinearValueFunction(gh, eps), 1.0, eps, grid, 0.1,
                     (0.5, 0.9), SEED, range(6), **kw)
    assert not np.any(closed.failed)
    for field in ("y_hat", "z_hat", "y_true", "sup_abs_y_err"):
        npt.assert_allclose(getattr(closed, field), getattr(quad, field), rtol=1e-12,
                            err_msg=field)


def test_simulate_batch_matches_scalar_and_flags_divergence():
    cubic = ModelSpec(drift=lambda th, t, x: th * x**3,
                      drift_dtheta=lambda th, t, x: x**3,
                      drift_ddtheta=lambda th, t, x: 0.0,
                      drift_dx=lambda th, t, x: 3.0 * th * x**2,
                      drift_dtheta_dx=lambda th, t, x: 3.0 * x**2,
                      diffusion=lambda t, x: 1.0, diffusion_dx=lambda t, x: 0.0,
                      theta_interval=(0.5, 1.5), x0=1.0, horizon=1.0,
                      kappa=1.0, growth_const=10.0)
    grid = TimeGrid(0.0, 1.0, 100)
    X, W, diverged = simulate_batch(cubic, 1.0, 2.0, grid, 99, range(8))
    assert np.any(diverged) and not np.all(diverged)
    for r in range(8):
        if diverged[r]:
            assert X[r, -1] == cubic.x0
            with pytest.raises(SimulationDivergedError):
                simulate_forward(cubic, 1.0, 2.0, grid, NoiseSource(99, r))
        else:
            Xs, Ws = simulate_forward(cubic, 1.0, 2.0, grid, NoiseSource(99, r))
            assert np.array_equal(X[r], Xs.values)
            assert np.array_equal(W[r], Ws.values)


def test_vector_simpson_analytic_rows():
    def rows(u):
        return np.vstack((u**2, np.cos(3.0 * u), np.exp(u)))

    vals, failed = vector_simpson(rows, 3)
    want = np.array([1.0 / 3.0, np.sin(3.0) / 3.0, np.e - 1.0])
    npt.assert_allclose(vals, want, atol=1e-9)
    assert not np.any(failed)


def test_vector_simpson_rows_are_independent():
    alone, _ = vector_simpson(lambda u: np.cos(3.0 * u)[None, :], 1)
    # pair the same row with a slowly converging mate
    both, _ = vector_simpson(
        lambda u: np.vstack((np.cos(3.0 * u), np.cos(40.0 * u))), 2)
    assert both[0] == alone[0]


def test_vector_simpson_reports_failures():
    _, failed = vector_simpson(lambda u: np.cos(40.0 * u)[None, :], 1,
                               max_levels=1)
    assert failed[0]


def test_run_batch_rejects_early_report():
    b = build_preset("linear-constant-drift")
    grid = TimeGrid(0.0, 1.0, 100)
    vf = LinearValueFunction(b.linear, 0.1)
    with pytest.raises(ConfigurationError):
        run_batch(b.model, vf, 1.0, 0.1, grid, 0.2, (0.1,), SEED, range(2))
