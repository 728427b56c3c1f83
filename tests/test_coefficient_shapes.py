"""Preset coefficients return their natural shape, and that moves no bit.

A constant coefficient is a scalar (or theta), and every consumer combines
such small operands before they meet a path.  Each element still sees the
same IEEE operations in the same order, so a "wide" twin of each preset,
whose coefficients return full arrays of the broadcast shape of (theta, x)
the way the presets once did, must give the same numbers bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from snbsde import engine
from snbsde.engine import pilot_batch, run_batch, simulate_batch
from snbsde.estimation import full_mle, limit_quantities
from snbsde.grids import NoiseSource, TimeGrid
from snbsde.models import ModelSpec, simulate_forward
from snbsde.pde import PdeGrid, theta_derivatives_by_bundle
from snbsde.presets import build_preset
from snbsde.value_functions import LinearValueFunction

SEED = 5151
EPS = 0.05
CASES = [("linear-constant-drift", 1.0), ("linear-ou", 0.5), ("custom-pde", 0.8)]


def _wide_drift(f):
    return lambda th, t, x: f(th, t, x) + 0.0 * (np.asarray(th) + np.asarray(x, dtype=float))


def _wide_diffusion(f):
    return lambda t, x: f(t, x) + 0.0 * np.asarray(x, dtype=float)


def _wide(model):
    """The model with every coefficient a fresh array of the broadcast shape
    of its (theta, x), as the presets returned them: theta + 0 x, sigma + 0 x."""
    return dataclasses.replace(
        model, drift=_wide_drift(model.drift), drift_dtheta=_wide_drift(model.drift_dtheta),
        drift_dx=_wide_drift(model.drift_dx),
        drift_dtheta_dx=_wide_drift(model.drift_dtheta_dx),
        diffusion=_wide_diffusion(model.diffusion),
        diffusion_dx=_wide_diffusion(model.diffusion_dx))


def _vf(bundle, model):
    if bundle.linear is not None:
        return LinearValueFunction(bundle.linear, EPS)
    return theta_derivatives_by_bundle(model, bundle.driver, bundle.terminal.f, 1.0, EPS,
                                       PdeGrid(-6.0, 6.0, 64, model.horizon, 50))


def _same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name,theta0", CASES)
def test_lean_coefficients_match_wide_twin_bit_for_bit(name, theta0):
    b = build_preset(name)
    lean, wide = b.model, _wide(b.model)
    grid = TimeGrid(0.0, 1.0, 200)

    X, W = simulate_forward(lean, theta0, EPS, grid, NoiseSource(SEED, 3))
    Xw, Ww = simulate_forward(wide, theta0, EPS, grid, NoiseSource(SEED, 3))
    assert _same_bits(X.values, Xw.values) and _same_bits(W.values, Ww.values)
    assert full_mle(lean, X, 1.0, EPS) == full_mle(wide, X, 1.0, EPS)
    lq, lqw = limit_quantities(lean, theta0, 0.1, (0.5, 1.0)), \
        limit_quantities(wide, theta0, 0.1, (0.5, 1.0))
    assert lq.d2 == lqw.d2 and _same_bits(lq.x, lqw.x) and _same_bits(lq.info, lqw.info)

    batch = simulate_batch(lean, theta0, EPS, grid, SEED, range(6))
    batch_w = simulate_batch(wide, theta0, EPS, grid, SEED, range(6))
    assert all(_same_bits(u, v) for u, v in zip(batch, batch_w))
    pilot = pilot_batch(lean, batch[0], grid, 0.1)
    pilot_w = pilot_batch(wide, batch[0], grid, 0.1)
    assert all(_same_bits(u, v) for u, v in zip(pilot, pilot_w))

    vf, vf_w = _vf(b, lean), _vf(b, wide)
    for sup in (False, True):
        kw = dict(plugin=True, residuals=True, sup=sup)
        res = run_batch(lean, vf, theta0, EPS, grid, 0.1, (0.5, 1.0), SEED, range(6), **kw)
        res_w = run_batch(wide, vf_w, theta0, EPS, grid, 0.1, (0.5, 1.0), SEED, range(6),
                          **kw)
        assert not np.any(res.failed)
        for f in dataclasses.fields(engine.BatchResult):
            assert _same_bits(getattr(res, f.name), getattr(res_w, f.name)), (sup, f.name)


# the coefficients of each preset that are constant in (theta, t, x)
CONSTANT = {
    "linear-constant-drift": ("drift_dtheta", "drift_dx", "drift_dtheta_dx",
                              "diffusion", "diffusion_dx"),
    "linear-ou": ("drift_dtheta_dx", "diffusion", "diffusion_dx"),
    "custom-pde": ("diffusion", "diffusion_dx"),
}


@pytest.mark.parametrize("name", sorted(CONSTANT))
def test_constant_preset_coefficients_are_zero_dimensional(name):
    # a constant term never broadcasts against a path, and constant drift is theta itself
    model = build_preset(name).model
    t, x = np.linspace(0.0, 1.0, 5)[None, :], np.linspace(-1.0, 1.0, 15).reshape(3, 5)
    for field in CONSTANT[name]:
        fn = getattr(model, field)
        value = fn(t, x) if field.startswith("diffusion") else fn(0.7, t, x)
        assert np.ndim(value) == 0, field
    if name == "linear-constant-drift":
        theta = np.array([[0.3], [0.6], [0.9]])
        assert model.drift(theta, t, x) is theta


@pytest.mark.parametrize("name,theta0", CASES[:2])
def test_euler_step_order_is_pinned(name, theta0):
    # x + (S h) + (eps sigma) dw, in that order, whatever shape S and sigma have
    model = build_preset(name, {"sigma": 0.7}).model
    grid = TimeGrid(0.0, 1.0, 200)
    dw = NoiseSource(SEED, 4).increments(grid.n_steps, grid.h)
    want = [model.x0]
    for k in range(grid.n_steps):
        x, t = want[-1], grid.times[k]
        want.append((x + model.drift(theta0, t, x) * grid.h) +
                    (EPS * model.diffusion(t, x)) * dw[k])
    X, _ = simulate_forward(model, theta0, EPS, grid, NoiseSource(SEED, 4))
    assert _same_bits(X.values, np.array(want))


# S = theta (1 + t) and sigma = 1 + t/2: 0-d values that change every step,
# a NumPy scalar and a 0-d array, so a loop that evaluated either once, or
# took a 0-d array for a path-shaped one, would move bits
TIME_VARYING = ModelSpec(
    drift=lambda th, t, x: th * (1.0 + t), drift_dtheta=lambda th, t, x: 1.0 + t,
    drift_dx=lambda th, t, x: 0.0, drift_dtheta_dx=lambda th, t, x: 0.0,
    diffusion=lambda t, x: np.asarray(1.0 + 0.5 * t), diffusion_dx=lambda t, x: 0.0,
    theta_interval=(0.1, 1.9), x0=0.3, horizon=1.0, kappa=1.0, growth_const=4.0)


def test_euler_loop_evaluates_zero_dimensional_coefficients_every_step():
    model, theta0, grid = TIME_VARYING, 0.8, TimeGrid(0.0, 1.0, 200)

    def by_hand(sid):
        dw = NoiseSource(SEED, sid).increments(grid.n_steps, grid.h)
        x, out = model.x0, [model.x0]
        for k in range(grid.n_steps):
            t = float(grid.times[k])
            x = (x + (theta0 * (1.0 + t)) * grid.h) + (EPS * (1.0 + 0.5 * t)) * dw[k]
            out.append(x)
        return np.array(out)

    X, _ = simulate_forward(model, theta0, EPS, grid, NoiseSource(SEED, 4))
    assert _same_bits(X.values, by_hand(4))
    batch, _, diverged = simulate_batch(model, theta0, EPS, grid, SEED, range(5))
    assert not np.any(diverged)
    assert _same_bits(batch, np.array([by_hand(sid) for sid in range(5)]))
