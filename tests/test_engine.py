import dataclasses
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from snbsde import engine, models
from snbsde.bsde import approximate_bsde, residual_decomposition
from snbsde.engine import (REFINE_FACTOR, pilot_batch, run_batch, score_head_batch,
                           simulate_batch, _trapezoid_weights)
from snbsde.errors import (ConfigurationError, FlatObjectiveError,
                           IntegrationDivergedError, SimulationDivergedError)
from snbsde.estimation import EstimationWindow, mde_estimate, score_head
from snbsde.grids import NoiseSource, Path, TimeGrid
from snbsde.models import (ModelSpec, rk4_sensitivity, simulate_forward, validate_model,
                           _rk4_values)
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
        # the scalar pipeline is the engine on one row of the same bits
        assert res.theta_pilot[r] == approx.trace.theta_pilot
        assert np.array_equal(res.theta_onestep[r], approx.trace.theta_onestep[rel])
        npt.assert_allclose(res.y_hat[r], approx.y_hat.values[rel], rtol=0, atol=1e-9)
        npt.assert_allclose(res.z_hat[r], approx.z_hat.values[rel], rtol=0, atol=1e-9)
        npt.assert_allclose(res.y_true[r], approx.y_true.values[rel], rtol=0, atol=1e-9)
        npt.assert_allclose(res.xi[r], approx.error_limit.values[rel], rtol=0, atol=1e-9)
        npt.assert_allclose(res.r_y[r], dec.r_y.values[rel], rtol=0, atol=1e-7)
        npt.assert_allclose(res.r_z[r], dec.r_z.values[rel], rtol=0, atol=1e-7)


@pytest.mark.parametrize("name,params,theta0", [
    ("linear-constant-drift", {}, 1.0),
    ("custom-pde", {"drift_shape": "sine"}, 1.0),
    ("linear-ou", {}, 0.5)], ids=["constant", "sine", "linear-ou"])
def test_batch_results_chunk_invariant(name, params, theta0):
    # splitting a block into uneven chunks that share the block's theta table
    # and limit weights must reproduce every number of a block that builds
    # its own, bit for bit
    eps = 0.05
    b = build_preset(name, params)
    grid = TimeGrid(0.0, 1.0, 200)
    vf = _vf_for(b, eps)
    kw = dict(plugin=True, residuals=True, sup_stride=3)
    args = (b.model, vf, theta0, eps, grid, 0.1, (0.5, 1.0), SEED)
    whole = run_batch(*args, range(10), **kw)
    table = engine.ThetaTable(b.model, grid, 0.1)
    limit = engine.limit_weights(b.model, theta0, grid)
    parts = [run_batch(*args, range(lo, hi), table=table, limit=limit, **kw)
             for lo, hi in ((0, 3), (3, 4), (4, 10))]
    assert not np.any(whole.failed)
    assert table.node_window is not None and table.node_info is not None
    for f in dataclasses.fields(engine.BatchResult):
        got = getattr(whole, f.name)
        if f.name == "report_times":
            assert all(np.array_equal(p.report_times, got) for p in parts)
            continue
        merged = np.concatenate([getattr(p, f.name) for p in parts])
        assert np.array_equal(merged, got), f.name


@pytest.mark.parametrize("name,params,theta0", [
    ("linear-constant-drift", {}, 1.0),
    ("custom-pde", {"drift_shape": "sine"}, 1.0),
    ("linear-ou", {}, 0.5)], ids=["constant", "sine", "linear-ou"])
def test_sup_columns_move_no_other_output(name, params, theta0):
    # without the sup statistic the one-step is formed at the report nodes
    # and T only; every output the two blocks share must be bit for bit the
    # one formed at every node
    eps = 0.05
    b = build_preset(name, params)
    grid = TimeGrid(0.0, 1.0, 200)
    vf = _vf_for(b, eps)
    args = (b.model, vf, theta0, eps, grid, 0.1, (0.25, 0.5), SEED, range(8))
    lean = run_batch(*args, plugin=True, residuals=True, sup_stride=0)
    full = run_batch(*args, plugin=True, residuals=True, sup_stride=1)
    assert lean.sup_abs_y_err is None and full.sup_abs_y_err is not None
    assert not np.any(full.failed)
    for f in dataclasses.fields(engine.BatchResult):
        if f.name != "sup_abs_y_err":
            assert np.array_equal(getattr(lean, f.name), getattr(full, f.name)), f.name


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("name,params,theta0", [
    ("linear-constant-drift", {}, 1.0),
    ("custom-pde", {"drift_shape": "sine"}, 1.0)], ids=["constant", "sine"])
def test_sup_sweep_on_views_matches_gathered_copies(monkeypatch, name, params, theta0, stride):
    # the sup sweep reads contiguous node ranges of X and of the one-step as
    # views and passes theta0 as a scalar; it must give sup |Y_hat - Y| bit
    # for bit as copies gathered by fancy indexing with theta0 broadcast to
    # every element, and read views exactly when the sup nodes are a range
    eps = 0.05
    b = build_preset(name, params)
    grid = TimeGrid(0.0, 1.0, 200)
    vf = _vf_for(b, eps)
    args = (b.model, vf, theta0, eps, grid, 0.1, (0.5, 1.0), SEED, range(8))
    paths, views = [], []
    real_simulate, real_value = engine.simulate_batch, vf.value

    def simulate(*a, **kw):
        out = real_simulate(*a, **kw)
        paths.append(out[0])
        return out

    def value(t, x, theta):
        if np.size(t) > 2:  # a sup block; the report and terminal reads have 1-2 nodes
            views.append(np.shares_memory(x, paths[-1]))
        return real_value(t, x, theta)

    monkeypatch.setattr(engine, "simulate_batch", simulate)
    monkeypatch.setattr(vf, "value", value)
    got = run_batch(*args, sup_stride=stride)
    assert views == [stride == 1] * 2

    def gathered(t, x, theta):
        th = np.broadcast_to(theta, np.shape(x)) if np.ndim(theta) == 0 else theta
        return real_value(t, x, th)

    monkeypatch.setattr(engine, "_columns", lambda idx: idx)
    monkeypatch.setattr(vf, "value", gathered)
    want = run_batch(*args, sup_stride=stride)
    assert not np.any(got.failed)
    assert np.array_equal(got.sup_abs_y_err, want.sup_abs_y_err)
    assert np.all(got.sup_abs_y_err > 0.0)


@pytest.mark.parametrize("stride", [0, 1, 3])
@pytest.mark.parametrize("name,params,theta0", [
    ("linear-constant-drift", {}, 1.0),
    ("custom-pde", {"drift_shape": "sine"}, 1.0)], ids=["constant", "sine"])
def test_row_blocks_move_no_output(monkeypatch, name, params, theta0, stride):
    # run_batch carries rows in blocks from the information read through the
    # sup sweep; one row per block, blocks of 3 that split 10 rows unevenly
    # and the default single block must give every output bit for bit
    eps = 0.05
    b = build_preset(name, params)
    grid = TimeGrid(0.0, 1.0, 200)
    vf = _vf_for(b, eps)
    args = (b.model, vf, theta0, eps, grid, 0.1, (0.5, 1.0), SEED, range(10))
    kw = dict(plugin=True, residuals=True, sup_stride=stride,
              table=engine.ThetaTable(b.model, grid, 0.1),
              limit=engine.limit_weights(b.model, theta0, grid))
    whole = run_batch(*args, **kw)
    assert engine.ROW_BLOCK // (grid.n_steps + 1) >= 10
    assert not np.any(whole.failed)
    for rows in (1, 3):
        monkeypatch.setattr(engine, "ROW_BLOCK", rows * (grid.n_steps + 1))
        got = run_batch(*args, **kw)
        for f in dataclasses.fields(engine.BatchResult):
            assert np.array_equal(getattr(got, f.name), getattr(whole, f.name)), (rows, f.name)


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


def _traced_peak(fn):
    """(fn(), the peak traced allocation above what was allocated before it).

    numpy imports numpy.ma at the first np.unique of a process and
    numpy.random at the first noise draw, about 2 MB of traced allocation
    together; both are imported before the peak is reset, so a reading does
    not depend on whether an earlier test paid those imports."""
    import numpy.ma  # noqa: F401
    import numpy.random  # noqa: F401

    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return out, peak


# Peak traced allocation of one closed-form block (M = 200, n = 2000,
# sup_stride = 1, no residuals) in units of one (M, n+1) float64 array.  In
# row blocks of 131 rows it reads 4.23 (numpy 2.4; 4.78 before the lazy
# numpy imports were paid ahead of the trace); building the one-step on
# every node of [delta, T] at once read 10.36, keeping the (M, n+1-i)
# information alive to the end 11.26, and keeping every stage alive 18.0.
PEAK_PATH_ARRAYS = 11.0


def test_run_batch_peak_memory():
    m, n, eps = 200, 2000, 0.05
    b = build_preset("linear-constant-drift")
    grid = TimeGrid(0.0, 1.0, n)
    vf = LinearValueFunction(b.linear, eps)
    res, peak = _traced_peak(lambda: run_batch(b.model, vf, 1.0, eps, grid, 0.1, (0.5, 1.0),
                                               SEED, range(m), sup_stride=1))
    assert not np.any(res.failed)
    ratio = peak / (m * (n + 1) * 8)
    assert ratio < PEAK_PATH_ARRAYS, ratio


# Peak traced allocation of the same block without the sup statistic
# (sup_stride = 0), in units of one (M, n+1) float64 array.  The block reads
# 2.42 (numpy 2.4), set by the paths and the noise while the simulation
# runs; it read 3.0 while the constant coefficients came back as path-sized
# arrays, and 3.84 when the block built the information and tail score at
# every node of [delta, T].
PEAK_LEAN_PATH_ARRAYS = 3.4


def test_lean_run_batch_peak_memory():
    m, n, eps = 200, 2000, 0.05
    b = build_preset("linear-constant-drift")
    grid = TimeGrid(0.0, 1.0, n)
    vf = LinearValueFunction(b.linear, eps)
    res, peak = _traced_peak(lambda: run_batch(b.model, vf, 1.0, eps, grid, 0.1, (0.5, 1.0),
                                               SEED, range(m)))
    assert not np.any(res.failed)
    ratio = peak / (m * (n + 1) * 8)
    assert ratio < PEAK_LEAN_PATH_ARRAYS, ratio


# Peak traced allocation of a closed-form block at M = 1200, n = 1000,
# sup_stride = 1, plugin on, in units of one (M, n+1) float64 array.  It
# reads 2.23 (numpy 2.4): the paths and the noise while the simulation
# runs, then the paths and a few 2 MB row blocks.  A block that built the
# information, tail score and one-step on every sup node at once, and ran
# the sup sweep in column blocks, read 3.63.
PEAK_ROW_BLOCK_PATH_ARRAYS = 2.5


def _row_block_peak(**kw):
    """(result, peak in path arrays) of the closed-form block at M = 1200, n = 1000."""
    m, n, eps = 1200, 1000, 0.05
    b = build_preset("linear-constant-drift")
    grid = TimeGrid(0.0, 1.0, n)
    vf = LinearValueFunction(b.linear, eps)
    res, peak = _traced_peak(lambda: run_batch(b.model, vf, 1.0, eps, grid, 0.1, (0.5, 1.0),
                                               SEED, range(m), plugin=True, sup_stride=1, **kw))
    assert not np.any(res.failed)
    return res, peak / (m * (n + 1) * 8)


def test_run_batch_peak_memory_in_row_blocks():
    ratio = _row_block_peak()[1]
    assert ratio <= PEAK_ROW_BLOCK_PATH_ARRAYS, ratio


# The same block with residuals on, in the same units: it reads 2.44 (numpy
# 2.4), the paths and the noise dW, which the limiting factor xi reads in
# row blocks.  Forming xi's weighted increments and their running sums at
# full size read 4.01.
PEAK_RESIDUAL_PATH_ARRAYS = 2.6


def test_residual_run_batch_peak_memory():
    res, ratio = _row_block_peak(residuals=True)
    assert np.all(np.isfinite(res.xi))
    assert ratio <= PEAK_RESIDUAL_PATH_ARRAYS, ratio


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


# S = theta x^3 at epsilon = 2: some paths leave the blow-up guard within T = 1
CUBIC = ModelSpec(drift=lambda th, t, x: th * x**3,
                  drift_dtheta=lambda th, t, x: x**3,
                  drift_dx=lambda th, t, x: 3.0 * th * x**2,
                  drift_dtheta_dx=lambda th, t, x: 3.0 * x**2,
                  diffusion=lambda t, x: 1.0, diffusion_dx=lambda t, x: 0.0,
                  theta_interval=(0.5, 1.5), x0=1.0, horizon=1.0,
                  kappa=1.0, growth_const=10.0)


def _check_rows_against_scalar(X, dW, diverged, grid):
    for r in range(X.shape[0]):
        if diverged[r]:
            with pytest.raises(SimulationDivergedError) as err:
                simulate_forward(CUBIC, 1.0, 2.0, grid, NoiseSource(99, r))
            # frozen at x0 from the node where the scalar path stops, not before
            k = err.value.node_index
            assert np.all(X[r, k:] == CUBIC.x0) and X[r, k - 1] != CUBIC.x0
            # and that node is the first one a float step takes beyond the guard
            x = X[r, k - 1]
            step = x + CUBIC.drift(1.0, grid.times[k - 1], x) * grid.h + 2.0 * dW[r, k - 1]
            assert abs(x) <= models.BLOWUP_GUARD < abs(step)
        else:
            Xs, Ws = simulate_forward(CUBIC, 1.0, 2.0, grid, NoiseSource(99, r))
            assert np.array_equal(X[r], Xs.values)
            assert np.array_equal(np.concatenate(([0.0], np.cumsum(dW[r]))), Ws.values)


def test_simulate_batch_matches_scalar_and_flags_divergence():
    grid = TimeGrid(0.0, 1.0, 100)
    X, dW, diverged = simulate_batch(CUBIC, 1.0, 2.0, grid, 99, range(8))
    assert np.any(diverged) and not np.all(diverged)
    _check_rows_against_scalar(X, dW, diverged, grid)
    for r in np.flatnonzero(~diverged):
        # both share one Euler loop, so check it against plain float steps
        x = [CUBIC.x0]
        for k in range(grid.n_steps):
            x.append(x[-1] + float(CUBIC.drift(1.0, grid.times[k], x[-1])) * grid.h
                     + 2.0 * float(CUBIC.diffusion(grid.times[k], x[-1])) * dW[r, k])
        assert np.array_equal(X[r], x)


@pytest.mark.parametrize("n", [1, 15, 16, 17, 40])
def test_euler_tiles_match_scalar_paths_at_tile_edges(monkeypatch, n):
    # 8 rows in tiles of 16 steps: one step, a part tile, one whole tile, one
    # step past it and several tiles; every row must be its scalar path
    monkeypatch.setattr(models, "EULER_TILE", 8 * 16)
    grid = TimeGrid(0.0, 0.01 * n, n)
    _check_rows_against_scalar(*simulate_batch(CUBIC, 1.0, 2.0, grid, 99, range(8)), grid)


def test_euler_tiles_freeze_a_row_that_diverges_on_the_first_node_of_a_tile(monkeypatch):
    grid = TimeGrid(0.0, 1.0, 100)
    nodes = []
    for r in range(8):
        try:
            simulate_forward(CUBIC, 1.0, 2.0, grid, NoiseSource(99, r))
        except SimulationDivergedError as err:
            nodes.append(err.node_index)
    k = min(nodes)
    assert k > 2
    # tiles of k - 1 steps: node k opens the second tile
    monkeypatch.setattr(models, "EULER_TILE", 8 * (k - 1))
    X, dW, diverged = simulate_batch(CUBIC, 1.0, 2.0, grid, 99, range(8))
    assert np.sum(diverged) == len(nodes)
    _check_rows_against_scalar(X, dW, diverged, grid)


# -- head score --------------------------------------------------------------

HEAD_GRID = TimeGrid(0.0, 1.0, 200)
HEAD_EPS = 0.1
HEAD_THETAS = np.linspace(0.5, 1.5, 6)

# S = theta (1 + t) x, sigma = 1: the state primitive A = (1 + s)(x^2 - x0^2)/2
# has A_s = (x^2 - x0^2)/2
TIME_LINEAR = ModelSpec(
    drift=lambda th, t, x: th * (1.0 + t) * x,
    drift_dtheta=lambda th, t, x: (1.0 + t) * x + 0.0 * th,
    drift_dx=lambda th, t, x: th * (1.0 + t) + 0.0 * x,
    drift_dtheta_dx=lambda th, t, x: 1.0 + t + 0.0 * (th + x),
    diffusion=lambda t, x: 1.0 + 0.0 * (t + x),
    diffusion_dx=lambda t, x: 0.0 * (t + x),
    theta_interval=(0.1, 2.0), x0=1.0, horizon=1.0, kappa=1.0, growth_const=4.0)

# S = theta (1 + t) sin x, sigma = 1 + t/2: A = (1 + s)/(1 + s/2)^2 (cos x0 - cos x)
TIME_SINE = ModelSpec(
    drift=lambda th, t, x: th * (1.0 + t) * np.sin(x),
    drift_dtheta=lambda th, t, x: (1.0 + t) * np.sin(x) + 0.0 * th,
    drift_dx=lambda th, t, x: th * (1.0 + t) * np.cos(x),
    drift_dtheta_dx=lambda th, t, x: (1.0 + t) * np.cos(x) + 0.0 * th,
    diffusion=lambda t, x: 1.0 + 0.5 * t + 0.0 * x,
    diffusion_dx=lambda t, x: 0.0 * (t + x),
    theta_interval=(0.1, 2.0), x0=0.7, horizon=1.0, kappa=1.0, growth_const=4.0)

# S = theta sin x, sigma = 1 + cos(x)/4, the one model whose diffusion moves
# with x: A = 4/(1 + cos(x)/4) - 4/(1 + cos(x0)/4)
X_SIGMA = ModelSpec(
    drift=lambda th, t, x: th * np.sin(x),
    drift_dtheta=lambda th, t, x: np.sin(x) + 0.0 * th,
    drift_dx=lambda th, t, x: th * np.cos(x),
    drift_dtheta_dx=lambda th, t, x: np.cos(x) + 0.0 * th,
    diffusion=lambda t, x: 1.0 + 0.25 * np.cos(x) + 0.0 * t,
    diffusion_dx=lambda t, x: -0.25 * np.sin(x) + 0.0 * t,
    theta_interval=(0.1, 1.9), x0=1.0, horizon=1.0, kappa=0.5625, growth_const=2.0)


def _head_window(model, seed):
    X, _, diverged = simulate_batch(model, 1.0, HEAD_EPS, HEAD_GRID, seed,
                                    range(HEAD_THETAS.size))
    assert not np.any(diverged)
    i = HEAD_GRID.node_index(0.1)
    t = HEAD_GRID.times[: i + 1]
    return X, i, t, X[:, : i + 1], _trapezoid_weights(i + 1, HEAD_GRID.h)


def _scalar_heads(model, X):
    return np.array([score_head(model, th, Path(HEAD_GRID, X[r]), 0.1, HEAD_EPS)
                     for r, th in enumerate(HEAD_THETAS)])


def test_head_score_time_linear_closed_form():
    # the integral-free form with the exact primitive, plus the trapezoid
    # path sum's exact error for this A, sum_k h (X_{k+1} - X_k)^2 / 4
    X, i, t, xs, w = _head_window(TIME_LINEAR, 11)
    s_term = np.sum(w * 0.5 * (xs**2 - 1.0), axis=1)  # sum_k w_k A_s(t_k, X_k)
    assert np.all(np.abs(s_term) > 1e-3)
    want = (0.5 * (1.0 + t[-1]) * (xs[:, -1] ** 2 - 1.0) - s_term
            - 0.5 * HEAD_EPS**2 * np.sum(w * (1.0 + t))
            - HEAD_THETAS * np.sum(w * (1.0 + t) ** 2 * xs**2, axis=1)
            + 0.25 * HEAD_GRID.h * np.sum(np.diff(xs, axis=1) ** 2, axis=1))
    head = score_head_batch(TIME_LINEAR, HEAD_THETAS, X, HEAD_GRID, i, HEAD_EPS)
    npt.assert_allclose(head, want, rtol=1e-12, atol=0)
    npt.assert_allclose(_scalar_heads(TIME_LINEAR, X), want, rtol=1e-12, atol=0)


def test_head_score_time_dependent_matches_per_node_reference():
    # reference: the path sum and the Ito correction, node by node in floats
    X, i, t, xs, w = _head_window(TIME_SINE, 12)
    want = []
    for r, th in enumerate(HEAD_THETAS):
        b = [(1.0 + s) * np.sin(x) / (1.0 + 0.5 * s) ** 2 for s, x in zip(t, xs[r])]
        head = 0.0
        for k in range(i):
            head += 0.5 * (b[k] + b[k + 1]) * (xs[r, k + 1] - xs[r, k])
        for k in range(i + 1):
            sdot_x = (1.0 + t[k]) * np.cos(xs[r, k])
            drift = th * (1.0 + t[k]) * np.sin(xs[r, k])
            head -= w[k] * (0.5 * HEAD_EPS**2 * sdot_x + b[k] * drift)
        want.append(head)
    head = score_head_batch(TIME_SINE, HEAD_THETAS, X, HEAD_GRID, i, HEAD_EPS)
    npt.assert_allclose(head, want, rtol=0, atol=1e-9)
    npt.assert_allclose(_scalar_heads(TIME_SINE, X), want, rtol=0, atol=1e-9)


def test_head_score_row_independent_of_batch_and_blocks():
    # one row alone, and a block of rows, against the same rows of the batch
    X, i, t, xs, w = _head_window(TIME_SINE, 13)
    whole = score_head_batch(TIME_SINE, HEAD_THETAS, X, HEAD_GRID, i, HEAD_EPS)
    alone = score_head_batch(TIME_SINE, HEAD_THETAS[2:3], X[2:3], HEAD_GRID, i, HEAD_EPS)
    block = score_head_batch(TIME_SINE, HEAD_THETAS[1:4], X[1:4], HEAD_GRID, i, HEAD_EPS)
    assert np.array_equal(alone, whole[2:3])
    assert np.array_equal(block, whole[1:4])


# name: (model, theta0, exact state primitive A(s, x), its derivative A_s)
ORACLE_MODELS = {
    "linear-ou": (build_preset("linear-ou").model, 0.5,
                  lambda s, x: 0.5 * (x**2 - 1.0), lambda s, x: 0.0 * x),
    "sine": (build_preset("custom-pde", {"drift_shape": "sine"}).model, 1.0,
             lambda s, x: np.cos(1.0) - np.cos(x), lambda s, x: 0.0 * x),
    "tanh": (build_preset("custom-pde", {"drift_shape": "tanh"}).model, 1.0,
             lambda s, x: np.log(np.cosh(x) / np.cosh(1.0)), lambda s, x: 0.0 * x),
    "time-sine": (TIME_SINE, 1.0,
                  lambda s, x: (1.0 + s) / (1.0 + 0.5 * s) ** 2 * (np.cos(0.7) - np.cos(x)),
                  lambda s, x: -0.5 * s / (1.0 + 0.5 * s) ** 3 * (np.cos(0.7) - np.cos(x))),
    "x-sigma": (X_SIGMA, 1.0,
                lambda s, x: 4.0 / (1.0 + 0.25 * np.cos(x)) - 4.0 / (1.0 + 0.25 * np.cos(1.0)),
                lambda s, x: 0.0 * x),
}


def _integral_free_head(model, thetas, X, grid, i, eps, prim, prim_s):
    """A(delta, X_delta) - int A_s ds - int [(eps^2/2) B_x sigma^2 + B S] ds,
    the time integrals by the trapezoid rule."""
    th = thetas[:, None]
    t = grid.times[: i + 1]
    xs = X[:, : i + 1]
    w = _trapezoid_weights(i + 1, grid.h)
    sig = model.diffusion(t, xs)
    bx_sig2 = model.drift_dtheta_dx(th, t, xs) - \
        2.0 * model.drift_dtheta(th, t, xs) * model.diffusion_dx(t, xs) / sig
    b_s = model.drift_dtheta(th, t, xs) * model.drift(th, t, xs) / sig**2
    return (prim(t[-1], xs[:, -1]) - np.sum(w * prim_s(t, xs), axis=1)
            - np.sum(w * (0.5 * eps**2 * bx_sig2 + b_s), axis=1))


@pytest.mark.parametrize("eps", [0.05, 0.02])
@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
def test_head_score_matches_integral_free_oracle(name, eps):
    # the trapezoidal path sum against the integral-free form with the exact
    # primitive, measured as the shift it gives the normalized one-step
    # (theta - theta0)/eps at t = 0.75: equal up to rounding where B is
    # linear in x and free of s, within O(sum |dX|^3) elsewhere
    model, theta0, prim, prim_s = ORACLE_MODELS[name]
    if name == "x-sigma":
        validate_model(model)
    grid = TimeGrid(0.0, 1.0, 1000)
    X, _, diverged = simulate_batch(model, theta0, eps, grid, SEED, range(200))
    assert not np.any(diverged)
    i = grid.node_index(0.1)
    table = engine.ThetaTable(model, grid, 0.1)
    pilot, flat = pilot_batch(model, X, grid, 0.1, table)
    assert not np.any(flat)
    head = score_head_batch(model, pilot, X, grid, i, eps)
    want = _integral_free_head(model, pilot, X, grid, i, eps, prim, prim_s)
    if name == "linear-ou":
        # the head is a difference of terms of the size of A(delta, X_delta),
        # so a head that is nearly 0 keeps their rounding: 1e-12 relative to
        # the larger of the head and that term
        scale = np.maximum(np.abs(want), np.abs(prim(0.1, X[:, i])))
        assert np.all(np.abs(head - want) <= 1e-12 * scale)
        return
    info = table.info(pilot)[:, grid.node_index(0.75) - i]
    assert np.max(np.abs(head - want) / (eps * info)) < 2e-5


# Peak traced allocation of score_head_batch at M = 1024, i = 100, in units of
# one (M, i+1) float64 array: the path sum and its correction read 5.18
# (numpy 2.4); the head that took the state primitive by adaptive Simpson
# quadrature read 8.05.
PEAK_HEAD_ARRAYS = 7.0


@pytest.mark.parametrize("model", [TIME_LINEAR, TIME_SINE], ids=["linear", "sine"])
def test_score_head_batch_peak_memory(model):
    m, i = 1024, 100
    grid = TimeGrid(0.0, 1.0, 1000)
    X, _, _ = simulate_batch(model, 1.0, 0.05, grid, SEED, range(m))
    thetas = np.full(m, 1.0)
    head, peak = _traced_peak(lambda: score_head_batch(model, thetas, X, grid, i, 0.05))
    assert np.all(np.isfinite(head))
    ratio = peak / (m * (i + 1) * 8)
    assert ratio < PEAK_HEAD_ARRAYS, ratio


def test_run_batch_rejects_early_report():
    b = build_preset("linear-constant-drift")
    grid = TimeGrid(0.0, 1.0, 100)
    vf = LinearValueFunction(b.linear, 0.1)
    with pytest.raises(ConfigurationError):
        run_batch(b.model, vf, 1.0, 0.1, grid, 0.2, (0.1,), SEED, range(2))


def test_run_batch_rejects_a_table_of_another_block():
    # a study's table serves every block of its (model, grid, delta) and no other
    b = build_preset("linear-constant-drift")
    grid = TimeGrid(0.0, 1.0, 100)
    vf = LinearValueFunction(b.linear, 0.1)
    for table in (engine.ThetaTable(b.model, TimeGrid(0.0, 1.0, 200), 0.2),
                  engine.ThetaTable(build_preset("linear-ou").model, grid, 0.2),
                  engine.ThetaTable(b.model, grid, 0.1)):
        with pytest.raises(ConfigurationError, match="theta table"):
            run_batch(b.model, vf, 1.0, 0.1, grid, 0.2, (0.5,), SEED, range(2), table=table)


# -- minimum-distance pilot ------------------------------------------------

PILOT_GRID = TimeGrid(0.0, 1.0, 1000)
PILOT_CASES = [("linear-ou", {}, 0.5), ("custom-pde", {"drift_shape": "sine"}, 1.0)]


def _pilot_paths(name, params, theta0, eps=0.05, m=37):
    model = build_preset(name, params).model
    X, _, diverged = simulate_batch(model, theta0, eps, PILOT_GRID, SEED, range(m))
    assert not np.any(diverged)
    return model, X


def _count_passes(monkeypatch):
    """Record the lane count of every Gauss-Newton pass the pilot makes: each
    pass reads the window flow and sensitivity of its live rows once."""
    counts = []
    real = engine.ThetaTable.window

    def spy(table, thetas):
        counts.append(np.size(thetas))
        return real(table, thetas)

    monkeypatch.setattr(engine.ThetaTable, "window", spy)
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
    # The oracle is the global minimum of F over a dense theta grid, which no
    # local search can mistake for a nearby stationary point; the test keeps
    # its name from an earlier golden-section oracle so that its id is stable.
    model, X = _pilot_paths(name, params, theta0, eps=0.02, m=6)
    theta, flat = pilot_batch(model, X, PILOT_GRID, 0.1)
    assert not np.any(flat)
    i = PILOT_GRID.node_index(0.1)
    wgrid = PILOT_GRID.prefix(0.1)
    w = _trapezoid_weights(i + 1, wgrid.h)
    lo, hi = model.theta_interval
    xw = X[:, : i + 1]
    f_pilot = np.sum(w * (xw - _rk4_values(model, theta, wgrid).T) ** 2, axis=1)
    dense = _rk4_values(model, np.linspace(lo, hi, 4001), wgrid)
    f_dense = np.array([np.sum(w[:, None] * (xw[r, :, None] - dense) ** 2, axis=0).min()
                        for r in range(X.shape[0])])
    assert np.all(f_pilot <= f_dense + engine._resolution(f_dense))
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


# -- theta tables ----------------------------------------------------------

TABLE_GRID = TimeGrid(0.0, 1.0, 1000)


def _rel_sup(got, want):
    return np.max(np.abs(got - want), axis=1) / np.max(np.abs(want), axis=1)


def _direct_info(model, thetas, grid, i):
    return engine.fisher_profile_batch(model, thetas, engine.flow_batch(model, thetas, grid),
                                       grid)[:, i:]


@pytest.mark.parametrize("name,params", [("linear-ou", {}),
                                         ("custom-pde", {"drift_shape": "sine"}),
                                         ("custom-pde", {"drift_shape": "tanh"})],
                         ids=["linear-ou", "sine", "tanh"])
def test_theta_table_matches_direct_rk4(name, params):
    model = build_preset(name, params).model
    table = engine.ThetaTable(model, TABLE_GRID, 0.1)
    assert table.node_window is not None and table.node_info is not None
    lo, hi = model.theta_interval
    thetas = np.random.default_rng(7).uniform(lo, hi, 200)
    x, xdot = table.window(thetas)
    x_d, xdot_d = rk4_sensitivity(model, thetas, table.wgrid)
    assert np.max(_rel_sup(x, x_d.T)) <= 1e-12
    assert np.max(_rel_sup(xdot[:, 1:], xdot_d.T[:, 1:])) <= 1e-12
    info = table.info(thetas)
    assert np.max(_rel_sup(info, _direct_info(model, thetas, TABLE_GRID, table.i_delta))) <= 1e-12


@pytest.mark.parametrize("model", ["sine", "kink"])
def test_theta_table_reads_columns_bit_for_bit(model):
    # the information at some nodes is those columns of the whole profiles,
    # from the interpolant and from the RK4 fallback alike
    if model == "kink":
        model, grid = KINK, TimeGrid(0.0, 1.0, 200)
    else:
        model, grid = build_preset("custom-pde", {"drift_shape": "sine"}).model, TABLE_GRID
    table = engine.ThetaTable(model, grid, 0.1)
    assert (table.node_info is None) == (model is KINK)
    n, i = grid.n_steps, table.i_delta
    thetas = np.random.default_rng(3).uniform(*model.theta_interval, 37)
    whole = table.info(thetas)
    for cols in ([n], [i], [i, n], [i, n // 2, n], np.arange(i, n + 1, 7), np.arange(i, n + 1)):
        cols = np.asarray(cols)
        assert np.array_equal(table.info(thetas, cols), whole[:, cols - i])
        assert np.array_equal(table.info(thetas[:1], cols), whole[:1, cols - i])


def test_theta_table_edge_pilots_read_node_values():
    # paths steeper or flatter than every flow in theta_interval put the
    # pilot on an end of the interval, which is a table node: the table must
    # hand back the RK4 values there, not an interpolant
    eps = 0.01
    b = build_preset("custom-pde", {"drift_shape": "sine"})
    model = b.model
    lo, hi = model.theta_interval
    grid = TimeGrid(0.0, 1.0, 200)
    X_lo, _, _ = simulate_batch(model, -0.5, eps, grid, SEED, range(2))
    X_hi, _, _ = simulate_batch(model, 3.0, eps, grid, SEED, range(2))
    X = np.vstack((X_lo, X_hi))
    table = engine.ThetaTable(model, grid, 0.1)
    assert table.nodes[0] == lo and table.nodes[-1] == hi
    theta, flat = pilot_batch(model, X, grid, 0.1, table)
    assert not np.any(flat)
    assert np.array_equal(theta, [lo, lo, hi, hi])
    x, xdot = table.window(theta)
    x_d, xdot_d = rk4_sensitivity(model, theta, table.wgrid)
    assert np.array_equal(x, x_d.T) and np.array_equal(xdot, xdot_d.T)
    assert table.node_window is not None
    info = table.info(theta)
    assert table.node_info is not None
    assert np.array_equal(info, _direct_info(model, theta, grid, table.i_delta))
    assert np.array_equal(info, table.node_info[[0, 0, -1, -1]])


class _LinearValue:
    """u = theta x: enough of a value function to run a block."""

    def value(self, t, x, theta):
        return np.broadcast_to(theta * x, np.broadcast_shapes(np.shape(t), np.shape(x)))

    def value_x(self, t, x, theta):
        return np.broadcast_to(theta + 0.0 * x, np.broadcast_shapes(np.shape(t), np.shape(x)))


def _g_kink(th):
    return th + 0.5 * np.abs(th - 1.0)


# S = g(theta) x with g kinked at theta = 1: smooth in x, not in theta
KINK = ModelSpec(
    drift=lambda th, t, x: _g_kink(th) * x,
    drift_dtheta=lambda th, t, x: (1.0 + 0.5 * np.sign(th - 1.0)) * x,
    drift_dx=lambda th, t, x: _g_kink(th) + 0.0 * x,
    drift_dtheta_dx=lambda th, t, x: 1.0 + 0.5 * np.sign(th - 1.0) + 0.0 * x,
    diffusion=lambda t, x: 1.0 + 0.0 * x, diffusion_dx=lambda t, x: 0.0 * x,
    theta_interval=(0.1, 1.9), x0=1.0, horizon=1.0, kappa=1.0, growth_const=4.0)

# S = theta x^2 from x0 = 1: the flow 1 / (1 - theta t) blows up inside
# [delta, T] for theta > 1 only, near the upper end of theta_interval
BLOWUP = ModelSpec(
    drift=lambda th, t, x: th * x**2,
    drift_dtheta=lambda th, t, x: x**2 + 0.0 * th,
    drift_dx=lambda th, t, x: 2.0 * th * x,
    drift_dtheta_dx=lambda th, t, x: 2.0 * x + 0.0 * th,
    diffusion=lambda t, x: 1.0 + 0.0 * x, diffusion_dx=lambda t, x: 0.0 * x,
    theta_interval=(0.1, 1.2), x0=1.0, horizon=1.0, kappa=1.0, growth_const=4.0)


def test_theta_table_guard_falls_back_to_rows_on_a_kink():
    eps, delta, theta0 = 0.05, 0.1, 0.8
    grid = TimeGrid(0.0, 1.0, 200)
    i = grid.node_index(delta)
    table = engine.ThetaTable(KINK, grid, delta)
    assert table.node_window is None and table.node_info is None
    res = run_batch(KINK, _LinearValue(), theta0, eps, grid, delta, (0.5, 1.0), SEED,
                    range(6), table=table)
    assert not np.any(res.failed)
    # the per-row path by hand: scan, Gauss-Newton on RK4 per row, then the
    # information along each row's own RK4 flow
    X, _, _ = simulate_batch(KINK, theta0, eps, grid, SEED, range(6))
    wgrid = grid.prefix(delta)
    xw = X[:, : i + 1]
    w = _trapezoid_weights(i + 1, wgrid.h)
    cand = np.linspace(*KINK.theta_interval, engine.SCAN_POINTS)
    x, xdot = (np.ascontiguousarray(a.T) for a in rk4_sensitivity(KINK, cand, wgrid))
    obj = np.stack([np.sum(w * (xw - x[j]) ** 2, axis=1) for j in range(cand.size)], axis=1)

    def evaluate(idx, thetas):
        xe, xdote = rk4_sensitivity(KINK, thetas, wgrid)
        return engine._gauss_newton(xw[idx], np.ascontiguousarray(xe.T),
                                    np.ascontiguousarray(xdote.T), w)

    pilot, _ = engine.refine_scan(cand, obj,
                                  lambda best: engine._gauss_newton(xw, x[best], xdot[best], w)[1],
                                  evaluate)
    assert np.array_equal(res.theta_pilot, pilot)
    tail = engine.score_tail_profile_batch(KINK, pilot, X, grid, i)
    head = score_head_batch(KINK, pilot, X, grid, i, eps)
    rel = np.array([grid.node_index(t) for t in (0.5, 1.0)]) - i
    theta, _, _ = engine.onestep_batch(KINK, pilot, tail, head,
                                       _direct_info(KINK, pilot, grid, i), rel)
    assert np.array_equal(res.theta_onestep, theta[:, rel])


def test_theta_table_survives_a_flow_that_diverges_near_an_edge():
    grid = TimeGrid(0.0, 1.0, 200)
    with pytest.raises(IntegrationDivergedError):
        _rk4_values(BLOWUP, BLOWUP.theta_interval[1], grid)
    # the window interpolant passes its check; the information on [delta, T]
    # falls back to RK4 per row
    table = engine.ThetaTable(BLOWUP, grid, 0.1)
    assert table.node_window is not None and table.node_info is None
    res = run_batch(BLOWUP, _LinearValue(), 0.5, 0.05, grid, 0.1, (0.5, 1.0), SEED,
                    range(6), table=table)
    assert not np.any(res.failed)
    assert np.all(np.abs(res.theta_onestep - 0.5) < 0.5)


def test_refine_scan_skips_infinite_candidates_and_flags_nan_rows():
    cand = np.linspace(0.0, 1.0, 5)
    obj = np.array([[np.inf, 1.0, 3.0, 2.0, 4.0],
                    [5.0, 3.0, np.nan, 2.0, 4.0]])
    theta, flat = engine.refine_scan(cand, obj, lambda best: np.zeros(best.size),
                                     lambda idx, thetas: (obj[idx, 0], 0.0 * thetas))
    assert flat.tolist() == [False, True]
    assert theta.tolist() == [0.25, 0.5]


# S = theta x^2 from x0 = 1 on theta_interval (0.5, 40): the flow
# 1 / (1 - theta t) blows up inside the window [0, 0.1] for every theta > 10
STEEP = dataclasses.replace(BLOWUP, theta_interval=(0.5, 40.0), horizon=0.2)


def test_pilot_never_picks_a_scan_candidate_whose_window_flow_diverges():
    grid = TimeGrid(0.0, 0.2, 200)
    table = engine.ThetaTable(STEEP, grid, 0.1)
    cand, _, _, ok = table.scan
    with pytest.raises(IntegrationDivergedError):
        rk4_sensitivity(STEEP, cand, table.wgrid)
    assert np.array_equal(ok, cand < 10.0)
    X, _, diverged = simulate_batch(STEEP, 1.0, 0.05, grid, SEED, range(8))
    assert not np.any(diverged)
    theta, flat = pilot_batch(STEEP, X, grid, 0.1, table)
    assert not np.any(flat)
    assert np.all(np.abs(theta - 1.0) < 0.5)


def test_theta_table_fallback_fails_rows_whose_flow_diverges():
    # at theta0 = 4.95 some pilots exceed 1/T = 5, so their flow 1/(1 - theta t)
    # blows up before T: the per-row information gives those rows 0, so they
    # are failed, the block returns, and every other row is bit for bit its
    # number in a block without them
    grid = TimeGrid(0.0, 0.2, 200)
    table = engine.ThetaTable(STEEP, grid, 0.1)
    args = (STEEP, _LinearValue(), 4.95, 0.05, grid, 0.1, (0.15, 0.2), SEED)
    kw = dict(plugin=True, sup_stride=1, table=table)
    res = run_batch(*args, range(64), **kw)
    assert table.node_window is None and table.node_info is None
    assert not np.any(res.diverged | res.flat)
    assert 0 < np.sum(res.failed) < 32
    # the failed rows are those whose flow, or its information, diverges on
    # [0, T]: RK4 per row raises for them, and their information reads 0
    with pytest.raises(IntegrationDivergedError):
        _rk4_values(STEEP, res.theta_pilot[res.failed], grid)
    info = table.info(res.theta_pilot)
    assert np.all(info[res.failed] == 0.0)
    assert np.all(info[~res.failed, -1] >= engine.INFO_FLOOR)
    kept = np.flatnonzero(~res.failed)
    alone = run_batch(*args, kept.tolist(), **kw)
    for f in dataclasses.fields(engine.BatchResult):
        got = getattr(res, f.name)
        got = got if got is None or f.name == "report_times" else got[kept]
        assert np.array_equal(got, getattr(alone, f.name)), f.name


def test_pilot_treats_a_trial_whose_window_flow_diverges_as_a_rise(monkeypatch):
    # paths at theta0 = 10.5 put pilots next to 10, above which the window
    # flow blows up before delta: Gauss-Newton trials there read F = +inf,
    # are halved back, and no row is flat or depends on the batch
    grid = TimeGrid(0.0, 0.2, 200)
    table = engine.ThetaTable(STEEP, grid, 0.1)
    trials = []
    real = engine.ThetaTable._direct_window

    def spy(self, thetas):
        out = real(self, thetas)
        trials.append(out[1])
        return out

    monkeypatch.setattr(engine.ThetaTable, "_direct_window", spy)
    X, _, _ = simulate_batch(STEEP, 10.5, 0.05, grid, SEED, range(16))
    theta, flat = pilot_batch(STEEP, X, grid, 0.1, table)
    assert table.node_window is None
    assert not np.all(np.concatenate(trials))
    assert not np.any(flat)
    rk4_sensitivity(STEEP, theta, table.wgrid)  # every pilot's window flow is finite
    for r in range(X.shape[0]):
        assert pilot_batch(STEEP, X[r:r + 1], grid, 0.1, table)[0][0] == theta[r]
