"""End-to-end acceptance checks for the delivered pipeline.

Ten numbered criteria, each ending in a single PASS/FAIL verdict printed
through the capture bypass so the lines are visible in any pytest run.
Tolerances are the frozen delivery contract, not tuning knobs; comments note
the measured values they were frozen around.
"""

import time

import numpy as np
import pytest
from scipy.special import ndtr

from snbsde.bsde import efficiency_bounds
from snbsde.engine import simulate_batch
from snbsde.estimation import (
    fisher_information,
    mde_asymptotic_variance,
    one_step_mle,
)
from snbsde.experiment import (
    ExperimentConfig,
    normality_diagnostics,
    run_epsilon_block,
    shrinking_window_study,
)
from snbsde.grids import Path, TimeGrid
from snbsde.models import ModelSpec, solve_limit_ode
from snbsde.pde import PdeGrid, solve_semilinear_pde
from snbsde.presets import build_preset
from snbsde.value_functions import LinearValueFunction

BETA = 0.1
GAMMA = 0.2
SIGMA = 1.0
THETA0 = 1.0
DELTA = 0.1
T_REPORT = 0.5
CORE_EPS = 0.02
CORE_M = 5000
SEED = 20240901


def _verdict(capsys, num, passed, detail):
    with capsys.disabled():
        print(f"criterion {num:02d}: {'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, f"criterion {num:02d}: {detail}"


@pytest.fixture(scope="module")
def core():
    """One shared run: 5000 replications of the constant-drift linear model
    with identity terminal at epsilon = 0.02, closed-form backend.

    Criteria 1, 2, 3, 6 and 9 all read from this block, so the wall time
    recorded here is the cost of the whole group.
    """
    cfg = ExperimentConfig(
        model="linear-constant-drift",
        model_params={"terminal": "identity"},
        theta0=THETA0,
        epsilon_list=(CORE_EPS,),
        delta=DELTA,
        t_report=(T_REPORT,),
        n_steps=1000,
        n_replications=CORE_M,
        base_seed=SEED,
        backend="closed-form",
        plugin=True,
    )
    bundle = cfg.validate()
    t0 = time.perf_counter()
    block = run_epsilon_block(bundle, cfg, CORE_EPS, 0)
    wall = time.perf_counter() - t0
    res = block.result
    good = ~res.failed
    bound_y, bound_z = efficiency_bounds(bundle.model, block.vf, THETA0, T_REPORT)
    return {
        "bundle": bundle,
        "res": res,
        "good": good,
        "bound_y": bound_y,
        "bound_z": bound_z,
        "wall": wall,
    }


def test_criterion_01_y_risk_attains_bound(core, capsys):
    res, good = core["res"], core["good"]
    err = res.y_hat[good, 0] - res.y_true[good, 0]
    risk = float(np.mean(err**2)) / CORE_EPS**2
    bound = core["bound_y"]
    # independent closed form for the target: (tau e^{beta tau})^2 / t at
    # t = 0.5 equals 0.5 e^{0.1} = 0.55259 for sigma = 1
    closed = (1.0 - T_REPORT) ** 2 * np.exp(2.0 * BETA * (1.0 - T_REPORT)) / T_REPORT
    passed = (
        abs(bound - closed) < 1e-10
        and abs(risk - bound) <= 0.10 * bound
        and core["wall"] <= 300.0
    )
    _verdict(capsys, 1,
             passed,
             f"normalized Y-risk {risk:.4f} vs bound {bound:.4f} "
             f"(ratio {risk / bound:.3f}, run {core['wall']:.1f}s)")


def test_criterion_02_z_risk_attains_bound(core, capsys):
    res, good = core["res"], core["good"]
    err = res.z_hat[good, 0] - res.z_true[good, 0]
    risk = float(np.mean(err**2)) / CORE_EPS**4
    bound = core["bound_z"]
    # identity terminal: u_x carries no parameter dependence, so the Z bound
    # degenerates to zero and the estimator must land on it exactly; the
    # relative band keeps its stated width with an absolute floor
    passed = bound <= 1e-12 and abs(risk - bound) <= 0.15 * bound + 1e-12
    _verdict(capsys, 2,
             passed,
             f"normalized Z-risk {risk:.3e} vs bound {bound:.3e}")


def test_criterion_03_one_step_is_asymptotically_normal(core, capsys):
    res, good = core["res"], core["good"]
    sample = (res.theta_onestep[good, 0] - THETA0) / CORE_EPS
    # numeric information on [0, t] must agree with t / sigma^2 = 0.5
    wgrid = TimeGrid(0.0, T_REPORT, 2000)
    flow = solve_limit_ode(core["bundle"].model, THETA0, wgrid)
    info = fisher_information(core["bundle"].model, THETA0, flow, T_REPORT)
    target = 1.0 / info
    rep = normality_diagnostics(sample, target)
    passed = (
        abs(target - 2.0) < 1e-6
        and abs(rep.var_ratio - 1.0) <= 0.05
        and rep.ks_p > 0.01
    )
    _verdict(capsys, 3,
             passed,
             f"variance ratio {rep.var_ratio:.4f} vs 1/I = {target:.4f}, "
             f"KS p = {rep.ks_p:.3f}")


def test_criterion_04_one_step_closed_form_identity(capsys):
    # constant drift: the one-step update telescopes to (X_t - x0) / t no
    # matter where the pilot sits in the parameter interval
    bundle = build_preset("linear-constant-drift", {"terminal": "identity"})
    grid = TimeGrid(0.0, 1.0, 500)
    eps = 0.05
    X, _, diverged = simulate_batch(bundle.model, THETA0, eps, grid, 2468,
                                    list(range(100)))
    assert not diverged.any()
    pilots = np.linspace(0.15, 1.85, 7)
    report_ts = (0.3, 0.5, 1.0)
    worst = 0.0
    for r in range(100):
        path = Path(grid, X[r])
        t = report_ts[r % 3]
        direct = (X[r, grid.node_index(t)] - bundle.model.x0) / t
        est = one_step_mle(bundle.model, float(pilots[r % 7]), path,
                           DELTA, t, eps)
        worst = max(worst, abs(est - direct))
    _verdict(capsys, 4, worst <= 1e-10,
             f"max |one-step - (X_t - x0)/t| = {worst:.2e} over 100 paths")


def _zero3(theta, t, x):
    return 0.0


def _zero2(t, x):
    return 0.0


def _half_sigma(t, x):
    return 0.5


def _no_driver(t, x, y, z):
    return 0.0


def test_criterion_05_pde_solver_cross_checks(capsys):
    t0 = time.perf_counter()
    # (a) grid solution of the linear problem against the closed form
    bundle = build_preset("linear-constant-drift", {"terminal": "identity"})
    eps = 0.1
    grid = PdeGrid(-6.0, 6.0, 400, 1.0, 400)
    sol = solve_semilinear_pde(bundle.model, bundle.driver, bundle.terminal.f,
                               THETA0, eps, grid)
    vf = LinearValueFunction(bundle.linear, eps)
    inner = np.abs(grid.xs) <= 3.0
    n_rows = sol.values.shape[0] - 1
    row_ts = np.linspace(0.0, 1.0, n_rows + 1)
    sup_err = 0.0
    for i, t in enumerate(row_ts):
        exact = np.asarray(vf.value(t, grid.xs[inner], THETA0))
        sup_err = max(sup_err, float(np.max(np.abs(sol.values[i, inner] - exact))))
    # (b) pure-diffusion oracle: u(t, x) = e^{-a (T - t)} cos x
    hmodel = ModelSpec(
        drift=_zero3, drift_dtheta=_zero3,
        drift_dx=_zero3, drift_dtheta_dx=_zero3,
        diffusion=_half_sigma, diffusion_dx=_zero2,
        theta_interval=(-1.0, 1.0), x0=0.0, horizon=1.0,
        kappa=0.25, growth_const=1.0,
    )
    hgrid = PdeGrid(-8.0, 8.0, 400, 1.0, 800)
    hsol = solve_semilinear_pde(hmodel, _no_driver, np.cos, 0.0, 1.0, hgrid)
    a = 0.5 * 1.0**2 * 0.5**2
    hmask = np.abs(hgrid.xs) <= 4.0
    h_rows = hsol.values.shape[0] - 1
    herr = 0.0
    for i, t in enumerate(np.linspace(0.0, 1.0, h_rows + 1)):
        exact = np.exp(-a * (1.0 - t)) * np.cos(hgrid.xs[hmask])
        herr = max(herr, float(np.max(np.abs(hsol.values[i, hmask] - exact))))
    wall = time.perf_counter() - t0
    passed = sup_err <= 1e-3 and herr <= 1e-4 and wall <= 30.0
    _verdict(capsys, 5,
             passed,
             f"linear sup-error {sup_err:.2e}, heat oracle {herr:.2e}, "
             f"run {wall:.1f}s")


def test_criterion_06_terminal_value_matches_payoff(core, capsys):
    res, good = core["res"], core["good"]
    worst = float(np.max(res.terminal_abs_err[good]))
    _verdict(capsys, 6, worst <= 1e-12,
             f"max |Y_hat(T) - Phi(X_T)| = {worst:.2e} over {int(good.sum())} paths")


def test_criterion_07_paths_concentrate_at_noise_rate(capsys):
    bundle = build_preset("linear-constant-drift", {"terminal": "identity"})
    grid = TimeGrid(0.0, 1.0, 1000)
    flow = solve_limit_ode(bundle.model, THETA0, grid).values
    stats = []
    for i, eps in enumerate((0.1, 0.05, 0.02)):
        ids = [(i << 32) | r for r in range(1000)]
        X, _, diverged = simulate_batch(bundle.model, THETA0, eps, grid, 777, ids)
        assert not diverged.any()
        sup = np.max(np.abs(X - flow[None, :]), axis=1)
        stats.append(float(np.mean(sup**2)) / eps**2)
    spread = max(stats) / min(stats)
    # measured 1.05 across independent streams; the band allows 1.25
    _verdict(capsys, 7, spread <= 1.25,
             "normalized E sup|X - x|^2 = "
             + ", ".join(f"{s:.3f}" for s in stats)
             + f" (max/min {spread:.3f})")


def test_criterion_08_y_residual_shrinks_with_noise(capsys):
    # the identity terminal zeroes this residual exactly, so the decay is
    # checked on the square terminal where it is first order in epsilon
    cfg = ExperimentConfig(
        model="linear-constant-drift",
        model_params={"terminal": "square"},
        theta0=THETA0,
        epsilon_list=(0.1, 0.05),
        delta=DELTA,
        t_report=(T_REPORT,),
        n_steps=1000,
        n_replications=2000,
        base_seed=SEED,
        backend="closed-form",
        plugin=False,
    )
    bundle = cfg.validate()
    # same eps_index on both levels pairs the Brownian streams
    coarse = run_epsilon_block(bundle, cfg, 0.1, 0, residuals=True)
    fine = run_epsilon_block(bundle, cfg, 0.05, 0, residuals=True)
    good = ~coarse.result.failed & ~fine.result.failed
    m_coarse = float(np.mean(np.abs(coarse.result.r_y[good, 0])))
    m_fine = float(np.mean(np.abs(fine.result.r_y[good, 0])))
    passed = m_fine <= 0.7 * m_coarse
    _verdict(capsys, 8,
             passed,
             f"E|rY| {m_coarse:.4e} at eps=0.1 -> {m_fine:.4e} at eps=0.05 "
             f"(ratio {m_fine / m_coarse:.3f})")


def test_criterion_09_one_step_beats_plugin_and_pilot_limit(core, capsys):
    res, good = core["res"], core["good"]
    e_plugin = (res.y_plugin[good, 0] - res.y_true[good, 0]) ** 2
    e_onestep = (res.y_hat[good, 0] - res.y_true[good, 0]) ** 2
    diff = e_plugin - e_onestep
    n = diff.size
    t_stat = float(np.mean(diff) / (np.std(diff, ddof=1) / np.sqrt(n)))
    p_value = float(1.0 - ndtr(t_stat))
    pilots = res.theta_pilot[good]
    var_norm = float(np.var(pilots - THETA0, ddof=1)) / CORE_EPS**2
    target = 6.0 * SIGMA**2 / (5.0 * DELTA)
    model = core["bundle"].model
    d2 = mde_asymptotic_variance(model, THETA0, DELTA)
    wgrid = TimeGrid(0.0, DELTA, 2000)
    flow = solve_limit_ode(model, THETA0, wgrid)
    info_window = fisher_information(model, THETA0, flow, DELTA)
    passed = (
        float(np.mean(e_plugin)) > float(np.mean(e_onestep))
        and p_value < 0.01
        and abs(var_norm - target) <= 0.10 * target
        and d2 >= 1.0 / info_window - 1e-9
    )
    _verdict(capsys, 9,
             passed,
             f"paired t = {t_stat:.1f} (p = {p_value:.1e}), pilot variance "
             f"{var_norm:.2f} vs {target:.1f}, D^2 = {d2:.2f} >= "
             f"{1.0 / info_window:.2f}")


def test_criterion_10_shrinking_window_schedules(capsys):
    # the wide parameter interval keeps the pilot unclamped at eps = 0.1,
    # where the normalized error has standard deviation near sqrt(12) eps
    cfg = ExperimentConfig(
        model="linear-constant-drift",
        model_params={"terminal": "identity", "theta_interval": (-1.0, 3.0)},
        theta0=THETA0,
        epsilon_list=(0.1, 0.05, 0.02),
        delta=DELTA,
        t_report=(1.0,),
        n_steps=4000,
        n_replications=1000,
        base_seed=SEED,
        backend="closed-form",
        plugin=False,
    )
    report = shrinking_window_study(cfg, kappa_list=(3.0,))
    slow = sorted((r for r in report.rows if r["schedule"] == "eps2-log"),
                  key=lambda r: -r["epsilon"])
    q95 = [r["q95_sup_err"] for r in slow]
    ran_all = all(r["ran"] and not r["flagged"] for r in slow)
    decreasing = all(b < a for a, b in zip(q95, q95[1:]))
    steep_names = {r["schedule"] for r in report.rows} - {"eps2-log"}
    steep = [r for r in report.rows if r["schedule"] in steep_names]
    steep_flagged = bool(steep) and all(r["flagged"] and not r["ran"] for r in steep)
    passed = (
        report.contracted["eps2-log"]
        and ran_all
        and decreasing
        and steep_flagged
        and not any(report.contracted[name] for name in steep_names)
    )
    _verdict(capsys, 10,
             passed,
             "q95 sup-error "
             + " > ".join(f"{v:.4f}" for v in q95)
             + f"; steep schedule flagged and skipped = {steep_flagged}")
