import numpy as np
import numpy.testing as npt
import pytest

from snbsde.errors import ConfigurationError, DomainError, PdeDivergenceError
from snbsde.grids import TimeGrid
from snbsde.models import ModelSpec, flow_ode, rk4, solve_limit_ode
from snbsde.pde import (DEFAULT_ROWS, PdeGrid, default_domain, eval_solution,
                        solve_semilinear_pde, theta_derivatives_by_bundle)
from snbsde.presets import TERMINALS, build_preset
from snbsde.value_functions import LinearModelSpec, LinearValueFunction

_ZERO3 = lambda th, t, x: 0.0
_ZERO2 = lambda t, x: 0.0
_NO_DRIVER = lambda t, x, y, z: 0.0


def _diffusion_model(sigma=0.5):
    return ModelSpec(drift=_ZERO3, drift_dtheta=_ZERO3,
                     drift_dx=_ZERO3, drift_dtheta_dx=_ZERO3,
                     diffusion=lambda t, x: sigma, diffusion_dx=_ZERO2,
                     theta_interval=(0.1, 1.9), x0=0.0, horizon=1.0,
                     kappa=sigma**2, growth_const=max(1.0, sigma))


def _advection_model():
    return ModelSpec(drift=lambda th, t, x: th + 0.0 * x,
                     drift_dtheta=lambda th, t, x: 1.0,
                     drift_dx=_ZERO3, drift_dtheta_dx=_ZERO3,
                     diffusion=lambda t, x: 1.0, diffusion_dx=_ZERO2,
                     theta_interval=(0.1, 1.9), x0=0.0, horizon=1.0,
                     kappa=1.0, growth_const=2.0)


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        PdeGrid(1.0, 1.0, 100, 1.0)
    with pytest.raises(ConfigurationError):
        PdeGrid(-1.0, 1.0, 4, 1.0)
    with pytest.raises(ConfigurationError):
        PdeGrid(-1.0, 1.0, 100, 0.0)
    with pytest.raises(ConfigurationError):
        PdeGrid(-1.0, 1.0, 100, 1.0, 0)
    g = PdeGrid(-1.0, 1.0, 100, 1.0)
    assert g.dx == pytest.approx(0.02)
    assert g.xs.shape == (101,)


def test_pure_diffusion_heat_oracle():
    # u_t + (a^2/2) u_xx = 0, u(T) = cos  =>  u(t, x) = exp(-a^2 tau / 2) cos x
    m = _diffusion_model(0.5)
    grid = PdeGrid(-8.0, 8.0, 320, 1.0, 800)
    sol = solve_semilinear_pde(m, _NO_DRIVER, TERMINALS["cosine"].f, 1.0, 1.0, grid)
    xs = np.linspace(-1.0, 1.0, 41)  # multiples of dx, no interpolation error
    for t in (0.0, 0.5):
        u, _ = eval_solution(sol, t, xs)
        exact = np.exp(-0.25 * (1.0 - t) / 2.0) * np.cos(xs)
        assert np.max(np.abs(u - exact)) < 1e-4
    assert sol.upwind_fraction == 0.0


def test_linear_data_reproduced_exactly():
    # identity terminal with zero driver is in the kernel of every stencil
    m = _diffusion_model(0.5)
    grid = PdeGrid(-8.0, 8.0, 64, 1.0, 50)
    sol = solve_semilinear_pde(m, _NO_DRIVER, TERMINALS["identity"].f, 1.0, 1.0, grid)
    npt.assert_allclose(sol.values, np.broadcast_to(grid.xs, sol.values.shape),
                        atol=1e-13)
    npt.assert_allclose(sol.x_derivative_values, 1.0, atol=1e-12)


def test_central_refinement_rate():
    # diffusion dominated: second order in dx, error ~ quarters when dx halves
    m = _diffusion_model(0.5)
    xs = np.linspace(-1.0, 1.0, 41)
    errs = []
    for n_x in (60, 120):
        grid = PdeGrid(-8.0, 8.0, n_x, 1.0, None)
        sol = solve_semilinear_pde(m, _NO_DRIVER, TERMINALS["cosine"].f, 1.0, 1.0, grid)
        u, _ = eval_solution(sol, 0.0, xs)
        errs.append(np.max(np.abs(u - np.exp(-0.125) * np.cos(xs))))
    assert errs[0] / errs[1] > 3.5


def test_advection_refinement_rate():
    # pure advection: the departure points are exact for constant drift and
    # the cubic interpolation error per step scales with the shift, so the
    # stored nodes converge at least at second order in dx
    m = _advection_model()
    errs = []
    for n_x in (100, 200):
        grid = PdeGrid(-8.0, 8.0, n_x, 1.0, None)
        sol = solve_semilinear_pde(m, _NO_DRIVER, TERMINALS["cosine"].f, 1.0, 0.0, grid)
        assert sol.values.shape == (DEFAULT_ROWS + 1, n_x + 1)
        inner = np.abs(grid.xs) <= 1.0
        errs.append(np.max(np.abs(sol.values[0, inner] - np.cos(grid.xs[inner] + 1.0))))
    assert errs[0] / errs[1] > 3.5


def test_characteristic_trace_is_second_order_in_time():
    # pure transport under S = theta sin x: u(t, x) = cos(X_T) with
    # tan(X_T / 2) = tan(x / 2) e^{theta (T - t)}.  The fine space grid leaves
    # the departure-point trace as the error; measured 9.7e-5 and 2.5e-5
    b = build_preset("custom-pde", {"drift_shape": "sine"})
    errs = []
    for n_t in (25, 50):
        grid = PdeGrid(-3.1, 3.1, 800, 1.0, n_t)
        sol = solve_semilinear_pde(b.model, _NO_DRIVER, TERMINALS["cosine"].f, 1.0, 0.0, grid)
        inner = np.abs(grid.xs) <= 2.5
        exact = np.cos(2.0 * np.arctan(np.tan(grid.xs[inner] / 2.0) * np.e))
        errs.append(np.max(np.abs(sol.values[0, inner] - exact)))
    assert errs[0] / errs[1] > 3.5


def test_linear_driver_is_second_order_in_time():
    # identity payoff: every space operator is exact on linear data, so the
    # whole error is the time step of the driver beta y + gamma z (Heun's
    # predictor-corrector); measured 6.6e-6 and 1.7e-6 at 25 and 50 rows
    b = build_preset("linear-constant-drift", {"terminal": "identity"})
    ref = LinearValueFunction(b.linear, 0.1)
    errs = []
    for n_t in (25, 50):
        grid = PdeGrid(-6.0, 6.0, 48, 1.0, n_t)
        sol = solve_semilinear_pde(b.model, b.driver, b.terminal.f, 1.0, 0.1, grid)
        ts = np.linspace(0.0, 1.0, n_t + 1)[:, None]
        errs.append(np.max(np.abs(sol.values - ref.value(ts, grid.xs[None, :], 1.0))))
    assert errs[0] / errs[1] > 3.5


def test_time_dependent_sigma_refactors_every_step():
    # u_t + (sigma(t)^2 / 2) u_xx = 0 with sigma(t) = 0.5 (1 + t), u(T) = cos:
    # u = exp(-(1/2) int_t^T sigma^2 ds) cos x.  r = (dt/4) (sigma / dx)^2
    # changes at every step, so every step factors its own matrix; a stale
    # factorization would diffuse at the wrong rate.  Measured maxima on
    # |x| <= 4: 1.80e-5 at 25 rows and 2.95e-5 at 50 (the space step's share)
    m = ModelSpec(drift=_ZERO3, drift_dtheta=_ZERO3, drift_dx=_ZERO3, drift_dtheta_dx=_ZERO3,
                  diffusion=lambda t, x: 0.5 * (1.0 + t), diffusion_dx=_ZERO2,
                  theta_interval=(0.1, 1.9), x0=0.0, horizon=1.0, kappa=1.0,
                  growth_const=1.0)
    for n_t, tol in ((25, 2.5e-5), (50, 4e-5)):
        grid = PdeGrid(-8.0, 8.0, 320, 1.0, n_t)
        sol = solve_semilinear_pde(m, _NO_DRIVER, TERMINALS["cosine"].f, 1.0, 1.0, grid)
        t = np.linspace(0.0, 1.0, n_t + 1)[:, None]
        exact = np.exp(-0.5 * 0.25 * (8.0 - (1.0 + t) ** 3) / 3.0) * np.cos(grid.xs)
        inner = np.abs(grid.xs) <= 4.0
        err = np.max(np.abs(sol.values - exact)[:, inner])
        assert err < tol, f"{n_t} rows: {err:.3e}"


def test_time_dependent_drift_rebuilds_the_stencil_every_step():
    # pure transport u_t + theta (1 + t) u_x = 0, u(T) = cos:
    # u = cos(x + theta ((T - t) + (T^2 - t^2) / 2)).  The departure points
    # move at every step, so every step builds its own cubic stencil; a stale
    # one would transport at the wrong speed.  Measured maxima on |x| <= 5:
    # 7.8e-7 at 25 rows and 2.9e-6 at 50
    m = ModelSpec(drift=lambda th, t, x: th * (1.0 + t), drift_dtheta=_ZERO3,
                  drift_dx=_ZERO3, drift_dtheta_dx=_ZERO3,
                  diffusion=lambda t, x: 1.0, diffusion_dx=_ZERO2,
                  theta_interval=(0.1, 1.9), x0=0.0, horizon=1.0, kappa=1.0,
                  growth_const=2.0)
    theta = 0.7
    for n_t, tol in ((25, 1.2e-6), (50, 4.5e-6)):
        grid = PdeGrid(-8.0, 8.0, 400, 1.0, n_t)
        sol = solve_semilinear_pde(m, _NO_DRIVER, TERMINALS["cosine"].f, theta, 0.0, grid)
        t = np.linspace(0.0, 1.0, n_t + 1)[:, None]
        exact = np.cos(grid.xs + theta * ((1.0 - t) + (1.0 - t**2) / 2.0))
        inner = np.abs(grid.xs) <= 5.0
        err = np.max(np.abs(sol.values - exact)[:, inner])
        assert err < tol, f"{n_t} rows: {err:.3e}"


def test_default_rows_read_between_rows():
    # the default rows against an 800-row solve, read between rows, on the
    # pde-block setting (sine drift, cosine payoff, eps = 0.05) at n_x = 400.
    # Measured maxima: 1.71e-5 for u and 2.54e-4 for u_theta_x (6.5e-6 and
    # 1.09e-4 at 200 rows); the bilinear x-read alone misses u_theta_x by
    # about 1.8e-3 at this n_x, so the time step is not what limits it
    b = build_preset("custom-pde", {"drift_shape": "sine", "terminal": "cosine"})
    lo, hi = default_domain(b.model)
    t = np.array([0.103, 0.305, 0.7525])[:, None]
    x = np.linspace(-1.0, 3.0, 81)[None, :]
    fine, default = (theta_derivatives_by_bundle(b.model, b.driver, b.terminal.f, 1.0, 0.05,
                                                 PdeGrid(lo, hi, 400, 1.0, n_t))
                     for n_t in (800, None))
    assert default._solutions[1].values.shape == (DEFAULT_ROWS + 1, 401)
    for meth, tol in (("value", 2.5e-5), ("value_theta_x", 3.5e-4)):
        err = np.max(np.abs(getattr(default, meth)(t, x, 1.0) - getattr(fine, meth)(t, x, 1.0)))
        assert err < tol, f"{meth}: {err:.3e}"


def test_divergence_guard():
    m = _diffusion_model(0.5)
    quadratic = lambda t, x, y, z: y**2
    flat_ten = lambda x: np.full_like(np.asarray(x, dtype=float), 10.0)
    with np.errstate(over="ignore"), pytest.raises(PdeDivergenceError):
        solve_semilinear_pde(m, quadratic, flat_ten, 1.0, 0.0,
                             PdeGrid(-8.0, 8.0, 64, 1.0, None))


def test_eval_solution_nodes_and_domain():
    m = _diffusion_model(0.5)
    # dx = 0.125 keeps the node coordinates exactly representable
    grid = PdeGrid(-2.0, 2.0, 32, 1.0, 200)
    sol = solve_semilinear_pde(m, _NO_DRIVER, TERMINALS["cosine"].f, 1.0, 0.3, grid)
    u, _ = eval_solution(sol, 0.5, grid.xs[7])
    assert u == sol.values[100, 7]
    u_end, _ = eval_solution(sol, 1.0, grid.xs[-1])
    assert u_end == sol.values[-1, -1]
    for t, x in ((-0.1, 0.0), (1.1, 0.0), (0.5, -2.5), (0.5, 2.5)):
        with pytest.raises(DomainError):
            eval_solution(sol, t, x)


def _linear_reference(terminal, epsilon):
    spec = LinearModelSpec(sigma=1.0, beta=0.1, gamma=0.2,
                           terminal=TERMINALS[terminal], horizon=1.0)
    return LinearValueFunction(spec, epsilon)


def test_bundle_matches_closed_form():
    b = build_preset("linear-constant-drift", {"terminal": "square"})
    grid = PdeGrid(-6.0, 6.0, 400, 1.0, 400)
    vf = theta_derivatives_by_bundle(b.model, b.driver, TERMINALS["square"].f,
                                     1.0, 0.3, grid)
    ref = _linear_reference("square", 0.3)
    # probe points sit on stored rows and space nodes
    pts = ((0.3, 0.51, 1.0), (0.5, -0.81, 1.02), (0.7, 1.29, 0.97))
    tols = {"value": 5e-3, "value_x": 1e-3, "value_theta": 1e-2,
            "value_theta_x": 1e-3}
    for meth, tol in tols.items():
        err = max(abs(getattr(vf, meth)(t, x, th) - getattr(ref, meth)(t, x, th))
                  for (t, x, th) in pts)
        assert err < tol, f"{meth}: {err:.3e}"
    for k, name in enumerate(("udot", "udot_x")):
        err = max(abs(vf.limit_theta_derivatives(t, x, th)[k]
                      - ref.limit_theta_derivatives(t, x, th)[k]) for (t, x, th) in pts)
        assert err < 1e-9, f"{name}: {err:.3e}"


def test_bundle_spacing():
    b = build_preset("linear-constant-drift")
    grid = PdeGrid(-6.0, 6.0, 64, 1.0, 50)
    vf = theta_derivatives_by_bundle(b.model, b.driver, TERMINALS["identity"].f,
                                     1.0, 0.3, grid)
    assert vf.dtheta == pytest.approx(1e-3 * 1.8)
    with pytest.raises(ConfigurationError):
        theta_derivatives_by_bundle(b.model, b.driver, TERMINALS["identity"].f,
                                    1.0, 0.3, grid, dtheta=0.0)


@pytest.mark.parametrize("name,params", [("linear-constant-drift", {}), ("linear-ou", {}),
                                         ("custom-pde", {"drift_shape": "sine"}),
                                         ("custom-pde", {"drift_shape": "tanh"})])
def test_default_domain_batched_flows_match_scalar_loop(name, params):
    model = build_preset(name, params).model
    grid = TimeGrid(0.0, model.horizon, 200)
    thetas = np.linspace(*model.theta_interval, 33)
    batched = rk4(*flow_ode(model, thetas), grid)
    span = 0.0
    for j, theta in enumerate(thetas):
        x = solve_limit_ode(model, float(theta), grid).values
        assert np.array_equal(batched[:, j], x)
        span = max(span, float(np.max(np.abs(x - model.x0))))
    lam = span + 1.0
    assert default_domain(model) == (model.x0 - 6.0 * lam, model.x0 + 6.0 * lam)


def test_bundle_matches_closed_form_at_small_eps():
    # the pde-refine benchmark setting: transport dominates (eps = 0.02), the
    # payoff is curved, and every probe point lies off the grid.  Measured
    # maxima: 1.05e-3, 2.38e-3, 7.9e-4 and 1.81e-3, mostly the bilinear read
    # and the central u_x of the stored rows
    b = build_preset("linear-constant-drift", {"terminal": "cosine"})
    lo, hi = default_domain(b.model)
    vf = theta_derivatives_by_bundle(b.model, b.driver, b.terminal.f, 1.0, 0.02,
                                     PdeGrid(lo, hi, 400, 1.0))
    ref = LinearValueFunction(b.linear, 0.02)
    t = np.array([0.25, 0.5, 0.75])[:, None]
    x = np.linspace(-2.0, 3.0, 101)[None, :]
    tols = {"value": 1.2e-3, "value_x": 2.6e-3, "value_theta": 9e-4,
            "value_theta_x": 2e-3}
    for meth, tol in tols.items():
        err = np.max(np.abs(getattr(vf, meth)(t, x, 1.0) - getattr(ref, meth)(t, x, 1.0)))
        assert err < tol, f"{meth}: {err:.3e}"


def _curved_driver(t, x, y, z):
    return 0.1 * np.sin(y) - 0.2 * z * np.abs(z)


@pytest.mark.parametrize("shape", ["sine", "tanh"])
def test_bundle_lanes_match_single_solves(shape):
    b = build_preset("custom-pde", {"drift_shape": shape, "terminal": "cosine"})
    grid = PdeGrid(-6.0, 8.0, 120, 1.0, 60)
    for driver in (b.driver, _curved_driver):
        vf = theta_derivatives_by_bundle(b.model, driver, b.terminal.f, 1.0, 0.05, grid)
        d = vf.dtheta
        for sol, theta in zip(vf._solutions, (1.0 - d, 1.0, 1.0 + d)):
            single = solve_semilinear_pde(b.model, driver, b.terminal.f, theta, 0.05, grid)
            assert np.array_equal(sol.values, single.values)


def test_taylor_reads_one_field_bit_for_bit():
    b = build_preset("custom-pde", {"terminal": "cosine"})
    vf = theta_derivatives_by_bundle(b.model, b.driver, b.terminal.f, 1.0, 0.05,
                                     PdeGrid(-6.0, 8.0, 120, 1.0, 60))
    t = np.array([0.0, 0.31, 0.5, 1.0])[:, None]
    x = np.array([-1.7, 0.2, 1.05, 2.9])[None, :]
    theta = np.array([0.97, 1.0, 1.02, 1.004])[:, None]
    d = theta - vf.theta_center
    for idx, (val, dval) in enumerate((("value", "value_theta"), ("value_x", "value_theta_x"))):
        vm, vc, vp = (eval_solution(sol, t, x)[idx] for sol in vf._solutions)
        first = (vp - vm) / (2.0 * vf.dtheta)
        second = (vp - 2.0 * vc + vm) / vf.dtheta**2
        assert np.array_equal(getattr(vf, val)(t, x, theta),
                              vc + d * first + 0.5 * d**2 * second)
        assert np.array_equal(getattr(vf, dval)(t, x, theta), first + d * second)


def _scalar_limit(model, driver, terminal, t, x, theta, n_steps=256):
    """Point-by-point characteristics, the reference for the lockstep lanes."""
    if t == model.horizon:
        return float(terminal(x))
    half = TimeGrid(t, model.horizon, 2 * n_steps)
    ts = half.times
    xs = rk4(*flow_ode(model, float(theta), float(x)), half)
    h = 2.0 * half.h
    y = float(terminal(xs[-1]))

    def g(idx, yv):
        return -float(driver(ts[idx], xs[idx], yv, 0.0))

    for k in range(half.n_steps, 0, -2):
        k1 = g(k, y)
        k2 = g(k - 1, y - 0.5 * h * k1)
        k3 = g(k - 1, y - 0.5 * h * k2)
        k4 = g(k - 2, y - h * k3)
        y = y - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


@pytest.mark.parametrize("shape", ["sine", "tanh"])
def test_limit_accessors_match_scalar_characteristics(shape):
    b = build_preset("custom-pde", {"drift_shape": shape, "terminal": "cosine"})
    vf = theta_derivatives_by_bundle(b.model, b.driver, b.terminal.f, 1.0, 0.05,
                                     PdeGrid(-6.0, 8.0, 64, 1.0, 20))
    dx, d = vf._solutions[1].grid.dx, vf.dtheta
    t = np.array([0.25, 0.5, 0.25, 1.0, 0.75, 0.5])
    x = np.array([1.2, 0.4, -0.3, 1.7, 2.2, 1.0])
    theta = np.array([1.0, 0.9, 1.1, 1.0, 1.3, 1.0])

    def lim(tt, xx, th):
        return _scalar_limit(b.model, b.driver, b.terminal.f, tt, xx, th)

    def udot(tt, xx, th):
        return (lim(tt, xx, th + d) - lim(tt, xx, th - d)) / (2.0 * d)

    def udot_x(tt, xx, th):
        return ((lim(tt, xx + dx, th + d) - lim(tt, xx + dx, th - d)) / (2.0 * d)
                - (lim(tt, xx - dx, th + d) - lim(tt, xx - dx, th - d)) / (2.0 * d)) / (2.0 * dx)

    got = vf.limit_theta_derivatives(t, x, theta)
    scalar = vf.limit_theta_derivatives(0.5, 0.4, 0.9)
    for fn, g, sc in zip((udot, udot_x), got, scalar):
        want = np.array([fn(*p) for p in zip(t, x, theta)])
        assert np.array_equal(g, want), fn.__name__
        assert isinstance(sc, float) and sc == fn(0.5, 0.4, 0.9), fn.__name__
