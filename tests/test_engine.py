import dataclasses
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from snbsde import engine
from snbsde.bsde import approximate_bsde, residual_decomposition
from snbsde.engine import (REFINE_FACTOR, pilot_batch, run_batch, simulate_batch,
                           vector_simpson, _trapezoid_weights)
from snbsde.errors import (ConfigurationError, FlatObjectiveError,
                           SimulationDivergedError)
from snbsde.estimation import EstimationWindow, mde_estimate, scan_then_golden
from snbsde.grids import NoiseSource, Path, TimeGrid
from snbsde.models import ModelSpec, rk4_sensitivity, simulate_forward, _rk4_values
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


def test_residuals_feed_nothing_else():
    # the limiting factor xi is built only for the residuals, so leaving them
    # out must leave every other output bit for bit the same
    eps = 0.05
    b = build_preset("linear-ou")
    grid = TimeGrid(0.0, 1.0, 200)
    vf = _vf_for(b, eps)
    args = (b.model, vf, 0.5, eps, grid, 0.1, (0.5, 1.0), SEED, range(6))
    lean = run_batch(*args, plugin=True, sup_stride=3)
    full = run_batch(*args, plugin=True, residuals=True, sup_stride=3)
    optional = ("xi", "r_y", "r_z")
    assert all(getattr(lean, name) is None for name in optional)
    assert all(getattr(full, name) is not None for name in optional)
    for f in dataclasses.fields(engine.BatchResult):
        if f.name not in optional:
            assert np.array_equal(getattr(lean, f.name), getattr(full, f.name)), f.name


# Peak traced allocation of one closed-form block (M = 200, n = 2000,
# sup_stride = 1, no residuals) in units of one (M, n+1) float64 array.  The
# lean block reads 10.16 (numpy 2.4); keeping any one more path-sized array
# alive to the end (the flows, the information or dW) reads 11.16, and a
# block that keeps every stage alive read 18.0.
PEAK_PATH_ARRAYS = 11.0


def test_run_batch_peak_memory():
    m, n, eps = 200, 2000, 0.05
    b = build_preset("linear-constant-drift")
    grid = TimeGrid(0.0, 1.0, n)
    vf = LinearValueFunction(b.linear, eps)
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        res = run_batch(b.model, vf, 1.0, eps, grid, 0.1, (0.5, 1.0), SEED, range(m),
                        sup_stride=1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert not np.any(res.failed)
    ratio = peak / (m * (n + 1) * 8)
    assert ratio < PEAK_PATH_ARRAYS, ratio


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
    X, dW, diverged = simulate_batch(cubic, 1.0, 2.0, grid, 99, range(8))
    assert np.any(diverged) and not np.all(diverged)
    for r in range(8):
        if diverged[r]:
            with pytest.raises(SimulationDivergedError) as err:
                simulate_forward(cubic, 1.0, 2.0, grid, NoiseSource(99, r))
            # frozen at x0 from the node where the scalar path stops, not before
            k = err.value.node_index
            assert np.all(X[r, k:] == cubic.x0) and X[r, k - 1] != cubic.x0
        else:
            Xs, Ws = simulate_forward(cubic, 1.0, 2.0, grid, NoiseSource(99, r))
            assert np.array_equal(X[r], Xs.values)
            assert np.array_equal(np.concatenate(([0.0], np.cumsum(dW[r]))), Ws.values)


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


# -- minimum-distance pilot ------------------------------------------------

PILOT_GRID = TimeGrid(0.0, 1.0, 1000)
PILOT_CASES = [("linear-ou", {}, 0.5), ("custom-pde", {"drift_shape": "sine"}, 1.0)]


def _pilot_paths(name, params, theta0, eps=0.05, m=37):
    model = build_preset(name, params).model
    X, _, diverged = simulate_batch(model, theta0, eps, PILOT_GRID, SEED, range(m))
    assert not np.any(diverged)
    return model, X


def _count_passes(monkeypatch):
    """Record the lane count of every RK4 sensitivity pass the pilot makes."""
    counts = []
    real = engine.rk4_sensitivity

    def spy(model, theta, grid):
        counts.append(np.size(theta))
        return real(model, theta, grid)

    monkeypatch.setattr(engine, "rk4_sensitivity", spy)
    return counts


def test_pilot_constant_drift_weighted_least_squares():
    # x(theta) = x0 + theta t, so F is quadratic with the closed-form minimizer
    # sum w t (X - x0) / sum w t^2
    model, X = _pilot_paths("linear-constant-drift", {}, 1.0)
    i = PILOT_GRID.node_index(0.1)
    t = PILOT_GRID.times[: i + 1]
    w = _trapezoid_weights(i + 1, PILOT_GRID.h)
    want = np.sum(w * t * (X[:, : i + 1] - model.x0), axis=1) / np.sum(w * t * t)
    theta, flat = pilot_batch(model, X, PILOT_GRID, 0.1)
    assert not np.any(flat)
    npt.assert_allclose(theta, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("name,params,theta0", PILOT_CASES)
def test_pilot_matches_golden_section_oracle(name, params, theta0):
    # Golden section compares F values, whose differences within ~1e-8 of the
    # minimum are rounding; its answer drifts with the residual size, by up to
    # about 2 tol at eps = 0.05.  At eps = 0.02 it resolves the minimum to tol.
    model, X = _pilot_paths(name, params, theta0, eps=0.02, m=6)
    theta, flat = pilot_batch(model, X, PILOT_GRID, 0.1)
    assert not np.any(flat)
    i = PILOT_GRID.node_index(0.1)
    wgrid = PILOT_GRID.prefix(0.1)
    w = _trapezoid_weights(i + 1, wgrid.h)
    lo, hi = model.theta_interval
    for r in range(X.shape[0]):
        xw = X[r, : i + 1]
        golden = scan_then_golden(
            lambda th: float(np.sum(w * (xw - _rk4_values(model, th, wgrid)) ** 2)), lo, hi)
        assert abs(theta[r] - golden) <= (hi - lo) * REFINE_FACTOR
    # the pilot is the stationary point of the discrete F: F'/F'' vanishes
    x, xdot = rk4_sensitivity(model, theta, wgrid)
    r = X[:, : i + 1] - x.T
    newton = np.sum(w * r * xdot.T, axis=1) / np.sum(w * xdot.T**2, axis=1)
    assert np.max(np.abs(newton)) < 1e-3 * (hi - lo) * REFINE_FACTOR


def test_pilot_returns_bracket_end_at_edge_of_interval():
    model = build_preset("linear-constant-drift").model
    lo, hi = model.theta_interval
    X, _, _ = simulate_batch(model, 0.0, 0.01, PILOT_GRID, SEED, range(2))
    X_hi, _, _ = simulate_batch(model, 2.5, 0.01, PILOT_GRID, SEED, range(2))
    theta, flat = pilot_batch(model, np.vstack((X, X_hi)), PILOT_GRID, 0.1)
    assert not np.any(flat)
    assert np.array_equal(theta, [lo, lo, hi, hi])


@pytest.mark.parametrize("name,params,theta0", PILOT_CASES)
def test_pilot_row_independent_of_batch(monkeypatch, name, params, theta0):
    model, X = _pilot_paths(name, params, theta0)
    counts = _count_passes(monkeypatch)
    alone, passes = [], []
    for r in range(X.shape[0]):
        del counts[:]
        th, _ = pilot_batch(model, X[r:r + 1], PILOT_GRID, 0.1)
        alone.append(th[0])
        passes.append(len(counts))
    chunk, _ = pilot_batch(model, X, PILOT_GRID, 0.1)
    assert np.array_equal(chunk, alone)

    # the slowest row runs its last passes as the only live lane
    last = int(np.argmax(passes))
    quick = [r for r in range(X.shape[0]) if passes[r] < passes[last]]
    del counts[:]
    th, _ = pilot_batch(model, X[quick + [last]], PILOT_GRID, 0.1)
    assert counts[-1] == 1
    assert th[-1] == alone[last]


def test_pilot_flags_unsettled_rows(monkeypatch):
    name, params, theta0 = PILOT_CASES[1]
    model, X = _pilot_paths(name, params, theta0, m=8)
    settled, flat = pilot_batch(model, X, PILOT_GRID, 0.1)
    assert not np.any(flat)
    monkeypatch.setattr(engine, "PILOT_MAX_PASSES", 1)
    capped, flat = pilot_batch(model, X, PILOT_GRID, 0.1)
    assert np.any(flat)
    r = int(np.argmax(flat))
    with pytest.raises(FlatObjectiveError):
        mde_estimate(model, Path(PILOT_GRID, X[r]), 0.1)
    # rows that did settle within the cap keep their values
    assert np.array_equal(capped[~flat], settled[~flat])


def test_pilot_halves_steps_that_raise_the_objective(monkeypatch):
    # inflate every long step so that it overshoots to the bracket end
    name, params, theta0 = PILOT_CASES[1]
    model, X = _pilot_paths(name, params, theta0, m=8)
    want, _ = pilot_batch(model, X, PILOT_GRID, 0.1)
    counts = _count_passes(monkeypatch)
    real = engine._gauss_newton

    def overshoot(*args):
        f, step = real(*args)
        return f, np.where(np.abs(step) > 1e-3, 40.0 * step, step)

    monkeypatch.setattr(engine, "_gauss_newton", overshoot)
    got, flat = pilot_batch(model, X, PILOT_GRID, 0.1)
    assert not np.any(flat)
    assert len(counts) > 4
    lo, hi = model.theta_interval
    npt.assert_allclose(got, want, rtol=0, atol=(hi - lo) * REFINE_FACTOR)
