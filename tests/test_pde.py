import numpy as np
import numpy.testing as npt
import pytest

from snbsde.errors import (ConfigurationError, DomainError,
                           PdeDivergenceError, StabilityError)
from snbsde.grids import TimeGrid
from snbsde.models import ModelSpec, solve_limit_ode, _rk4_values
from snbsde.pde import (PdeGrid, PdeSolution, default_domain, eval_solution,
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


def test_upwind_refinement_rate():
    # pure advection runs fully upwinded; the scheme is first order there,
    # so halving dx roughly halves the error rather than quartering it
    m = _advection_model()
    xs = np.linspace(-1.0, 1.0, 41)
    errs = []
    for n_x in (100, 200):
        grid = PdeGrid(-8.0, 8.0, n_x, 1.0, None)
        sol = solve_semilinear_pde(m, _NO_DRIVER, TERMINALS["cosine"].f, 1.0, 0.0, grid)
        assert sol.upwind_fraction == 1.0
        u, _ = eval_solution(sol, 0.0, xs)
        errs.append(np.max(np.abs(u - np.cos(xs + 1.0))))
    assert errs[0] / errs[1] > 1.7


def test_substepping_and_auto_rows():
    m = _diffusion_model(1.0)
    grid = PdeGrid(-8.0, 8.0, 160, 1.0, 20)
    sol = solve_semilinear_pde(m, _NO_DRIVER, TERMINALS["cosine"].f, 1.0, 1.0, grid)
    # dx = 0.1: diffusion limit 0.45 dx^2 = 4.5e-3, row step 0.05 -> 12 substeps
    assert sol.substeps == 12
    assert sol.internal_dt == pytest.approx(1.0 / (20 * 12))
    assert sol.values.shape == (21, 161)
    auto = solve_semilinear_pde(m, _NO_DRIVER, TERMINALS["cosine"].f, 1.0, 1.0,
                                PdeGrid(-8.0, 8.0, 160, 1.0, None))
    assert auto.substeps == 1
    assert 200 <= auto.values.shape[0] - 1 <= 2000


def test_stability_cap_raises():
    m = _diffusion_model(1.0)
    with pytest.raises(StabilityError):
        solve_semilinear_pde(m, _NO_DRIVER, TERMINALS["cosine"].f, 1.0, 1.0,
                             PdeGrid(-8.0, 8.0, 20000, 1.0, None))


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
                           terminal=TERMINALS[terminal],
                           theta_interval=(0.1, 1.9), x0=0.0, horizon=1.0)
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
    for meth in ("limit_value", "limit_value_x", "limit_value_theta",
                 "limit_value_theta_x"):
        err = max(abs(getattr(vf, meth)(t, x, th) - getattr(ref, meth)(t, x, th))
                  for (t, x, th) in pts)
        assert err < 1e-9, f"{meth}: {err:.3e}"


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
    batched = _rk4_values(model, thetas, grid)
    span = 0.0
    for j, theta in enumerate(thetas):
        x = solve_limit_ode(model, float(theta), grid).values
        assert np.array_equal(batched[:, j], x)
        span = max(span, float(np.max(np.abs(x - model.x0))))
    lam = span + 1.0
    assert default_domain(model) == (model.x0 - 6.0 * lam, model.x0 + 6.0 * lam)
