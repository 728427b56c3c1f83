import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from snbsde import bsde, engine, estimation, pde
from snbsde.bsde import approximate_bsde, efficiency_bounds, residual_decomposition
from snbsde.errors import ConfigurationError
from snbsde.estimation import EstimationWindow, limit_quantities
from snbsde.grids import NoiseSource, TimeGrid
from snbsde.models import simulate_forward
from snbsde.presets import build_preset
from snbsde.value_functions import LinearValueFunction

BETA, GAMMA = 0.1, 0.2


def _setup(terminal, epsilon, seed, theta0=1.0, n=500):
    b = build_preset("linear-constant-drift", {"terminal": terminal})
    grid = TimeGrid(0.0, 1.0, n)
    X, W = simulate_forward(b.model, theta0, epsilon, grid, NoiseSource(seed, 0))
    vf = LinearValueFunction(b.linear, epsilon)
    return b, X, W, vf


def test_identity_terminal_closed_form_assembly():
    eps = 0.1
    b, X, W, vf = _setup("identity", eps, 31)
    approx = approximate_bsde(b.model, vf, X, W, EstimationWindow(0.1), eps,
                              theta0=1.0)
    t = approx.times
    tau = 1.0 - t
    theta_prof = (approx.x_obs.values - 0.0) / t
    npt.assert_allclose(approx.trace.theta_onestep, theta_prof, atol=1e-12)
    want_y = np.exp(BETA * tau) * (approx.x_obs.values + (theta_prof + eps * GAMMA) * tau)
    npt.assert_allclose(approx.y_hat.values, want_y, atol=1e-10)
    # u_x is theta free for a linear payoff, so Z_hat and Z coincide
    want_z = eps * np.exp(BETA * tau)
    npt.assert_allclose(approx.z_hat.values, want_z, atol=1e-12)
    npt.assert_allclose(approx.z_true.values, want_z, atol=1e-12)


def test_terminal_value_exact():
    for terminal in ("identity", "square", "cosine"):
        b, X, W, vf = _setup(terminal, 0.05, 7)
        approx = approximate_bsde(b.model, vf, X, W, EstimationWindow(0.1), 0.05)
        want = b.terminal.f(X.values[-1])
        assert abs(approx.y_hat.values[-1] - want) < 1e-12


def test_identity_residuals_vanish():
    # for constant drift, theta_onestep - theta0 = eps W_t / t = eps xi_t
    # exactly, and a linear payoff makes the expansion exact as well
    eps = 0.1
    b, X, W, vf = _setup("identity", eps, 11)
    approx = approximate_bsde(b.model, vf, X, W, EstimationWindow(0.1), eps,
                              theta0=1.0)
    t = approx.times
    npt.assert_allclose(approx.error_limit.values, W.values[50:] / t, atol=1e-12)
    res = residual_decomposition(approx, b.model, vf, 1.0, eps)
    assert not res.degenerate
    assert np.max(np.abs(res.r_y.values)) < 1e-8
    assert np.max(np.abs(res.r_z.values)) < 1e-8


def test_residuals_require_oracle():
    eps = 0.1
    b, X, W, vf = _setup("identity", eps, 13)
    approx = approximate_bsde(b.model, vf, X, W, EstimationWindow(0.1), eps)
    assert approx.y_true is None and approx.error_limit is None
    with pytest.raises(ConfigurationError):
        residual_decomposition(approx, b.model, vf, 1.0, eps)


def test_zero_noise_residuals_degenerate():
    b, X, W, vf = _setup("identity", 0.0, 17)
    approx = approximate_bsde(b.model, vf, X, W, EstimationWindow(0.1), 0.0,
                              theta0=1.0)
    res = residual_decomposition(approx, b.model, vf, 1.0, 0.0)
    assert res.degenerate
    assert np.all(res.r_y.values == 0.0) and np.all(res.r_z.values == 0.0)


def test_efficiency_bounds_closed_form():
    # constant drift: I(theta0, t) = t / sigma^2 with sigma = 1, and the
    # limit derivative of the linear payoff value is tau e^{beta tau}
    b, _, _, vf = _setup("identity", 0.1, 1)
    by, bz = efficiency_bounds(b.model, vf, 1.0, 0.5)
    assert abs(by - 0.25 * np.exp(0.1) / 0.5) < 1e-10
    assert abs(by - 0.5525854590378239) < 1e-10
    assert abs(bz) < 1e-12

    b2, _, _, vf2 = _setup("square", 0.1, 1)
    by2, bz2 = efficiency_bounds(b2.model, vf2, 1.0, 0.5)
    assert abs(bz2 - (2 * 0.5 * np.exp(0.05)) ** 2 / 0.5) < 1e-8
    assert by2 > 0.0
    with pytest.raises(ConfigurationError):
        efficiency_bounds(b.model, vf, 1.0, 0.0)


def test_pde_bounds_take_one_characteristics_call(monkeypatch):
    # both theta-derivatives of a bound come from one six-lane call, bit for
    # bit the centered differences of single-lane calls, and the bounds at
    # three times from one call of eighteen lanes
    b = build_preset("custom-pde", {"drift_shape": "sine", "terminal": "cosine"})
    vf = pde.theta_derivatives_by_bundle(b.model, b.driver, b.terminal.f, 1.0, 0.05,
                                         pde.PdeGrid(-6.0, 8.0, 64, 1.0, 20))
    dx, d = vf._solutions[1].grid.dx, vf.dtheta
    lanes = []
    real = pde.characteristics_limit_value

    def spy(*args, **kw):
        lanes.append(np.size(args[4]))
        return real(*args, **kw)

    monkeypatch.setattr(pde, "characteristics_limit_value", spy)
    limit3 = limit_quantities(b.model, 1.0, None, (0.25, 0.5, 0.75))
    single = []
    for t in (0.25, 0.5, 0.75):
        lanes.clear()
        by, bz = efficiency_bounds(b.model, vf, 1.0, t)
        assert lanes == [6]
        limit = limit_quantities(b.model, 1.0, None, (t,))
        x_t, info = float(limit.x[0]), float(limit.info[0])

        def lim(x, th):
            return real(b.model, b.driver, b.terminal.f, t, np.array([x]), np.array([th]))[0]

        udot = (lim(x_t, 1.0 + d) - lim(x_t, 1.0 - d)) / (2.0 * d)
        udot_x = ((lim(x_t + dx, 1.0 + d) - lim(x_t + dx, 1.0 - d)) / (2.0 * d)
                  - (lim(x_t - dx, 1.0 + d) - lim(x_t - dx, 1.0 - d)) / (2.0 * d)) / (2.0 * dx)
        assert by == udot**2 / info
        assert bz == udot_x**2 * float(b.model.diffusion(t, x_t)) ** 2 / info
        single.append(efficiency_bounds(b.model, vf, 1.0, t, limit=limit3))
    # a sequence of times takes one call too, each lane on its own time grid,
    # and reads what each time reads alone from the same limit pass
    lanes.clear()
    by, bz = efficiency_bounds(b.model, vf, 1.0, (0.25, 0.5, 0.75), limit=limit3)
    assert lanes == [18]
    assert by.tolist() == [y for y, _ in single]
    assert bz.tolist() == [z for _, z in single]


def test_plugin_path_freezes_pilot():
    # the plug-in comparator Y_bar_t = u(t, X_t, theta_pilot) of a block, with
    # each row's pilot the distance minimizer on [0, delta] of its path
    eps = 0.1
    b, X, W, vf = _setup("identity", eps, 23)
    report = (0.1, 0.5, 1.0)
    res = engine.run_batch(b.model, vf, 1.0, eps, X.grid, 0.1, report, 23, [0], plugin=True)
    assert res.theta_pilot[0] == approximate_bsde(b.model, vf, X, W, EstimationWindow(0.1),
                                                  eps).trace.theta_pilot
    tau = 1.0 - np.array(report)
    x_t = X.values[[X.grid.node_index(t) for t in report]]
    want = np.exp(BETA * tau) * (x_t + (res.theta_pilot[0] + eps * GAMMA) * tau)
    npt.assert_allclose(res.y_plugin[0], want, atol=1e-10)


def test_efficiency_bounds_take_every_report_time_in_one_call():
    # a sequence of times gives arrays, element for element the bounds of a
    # shared pass read one time at a time
    b = build_preset("custom-pde", {"drift_shape": "sine", "terminal": "cosine"})
    vf = pde.theta_derivatives_by_bundle(b.model, b.driver, b.terminal.f, 1.0, 0.05,
                                         pde.PdeGrid(-6.0, 8.0, 64, 1.0, 20))
    times = (0.25, 0.5, 0.75)
    limit = limit_quantities(b.model, 1.0, 0.1, times)
    by, bz = efficiency_bounds(b.model, vf, 1.0, times, limit=limit)
    assert by.shape == bz.shape == (3,)
    for j, t in enumerate(times):
        assert (by[j], bz[j]) == efficiency_bounds(b.model, vf, 1.0, t, limit=limit)
    with pytest.raises(ConfigurationError):
        efficiency_bounds(b.model, vf, 1.0, 0.3, limit=limit)


def test_approximate_bsde_builds_one_table(monkeypatch):
    # the pilot and the one-step read one theta table: three RK4 passes, its
    # window flow twice (scan and nodes) and its information nodes once
    # (flow_batch); the fourth is the theta0 flow of the limiting factor
    # (limit_weights)
    eps = 0.1
    b, X, W, vf = _setup("square", eps, 29)
    shared = approximate_bsde(b.model, vf, X, W, EstimationWindow(0.1), eps, theta0=1.0)
    calls = {"tables": 0, "rk4": 0, "flow_batch": 0}
    real_init = engine.ThetaTable.__init__

    def init(self, *args, **kw):
        calls["tables"] += 1
        real_init(self, *args, **kw)

    monkeypatch.setattr(engine.ThetaTable, "__init__", init)
    for name in ("rk4", "flow_batch"):
        real = getattr(engine, name)

        def spy(*args, _name=name, _real=real, **kw):
            calls[_name] += 1
            return _real(*args, **kw)

        monkeypatch.setattr(engine, name, spy)
    approximate_bsde(b.model, vf, X, W, EstimationWindow(0.1), eps, theta0=1.0)
    assert calls == {"tables": 1, "rk4": 4, "flow_batch": 1}

    # the same call with a fresh table per stage gives every field bit for bit
    real_mde, real_trace = estimation.mde_estimate, estimation.onestep_trace
    monkeypatch.setattr(bsde, "mde_estimate",
                        lambda model, X, delta, table=None: real_mde(model, X, delta))
    monkeypatch.setattr(bsde, "onestep_trace",
                        lambda *args, table=None: real_trace(*args))
    calls["tables"] = 0
    unshared = approximate_bsde(b.model, vf, X, W, EstimationWindow(0.1), eps, theta0=1.0)
    assert calls["tables"] == 3
    for f in dataclasses.fields(shared):
        got, want = getattr(shared, f.name), getattr(unshared, f.name)
        for g in dataclasses.fields(got):
            assert np.array_equal(getattr(got, g.name), getattr(want, g.name)), \
                f"{f.name}.{g.name}"
