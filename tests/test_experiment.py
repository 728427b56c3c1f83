import dataclasses
import math

import numpy as np
import pytest

from snbsde import bsde, engine, estimation, experiment, models
from snbsde.errors import ConfigurationError, DiagnosticError, ExperimentAbortedError
from snbsde.experiment import (ExperimentConfig, _ks_uniform_p, build_value_function,
                               config_to_dict, normality_diagnostics, run_epsilon_block,
                               run_monte_carlo, shrinking_window_study)
from snbsde.models import ModelSpec
from snbsde.presets import build_preset

BASE = dict(model="linear-constant-drift", model_params={"terminal": "identity"},
            theta0=1.0, epsilon_list=(0.1,), delta=0.1, t_report=(0.5,),
            n_steps=200, n_replications=150, base_seed=99)


def test_config_validation():
    assert ExperimentConfig(**BASE).validate().name == "linear-constant-drift"
    bad = [
        dict(epsilon_list=()),
        dict(epsilon_list=(0.1, 0.2)),
        dict(epsilon_list=(0.1, -0.05)),
        dict(n_replications=50),
        dict(n_steps=5),
        dict(delta=0.0137),
        dict(delta=0.0),
        dict(t_report=()),
        dict(t_report=(0.05,)),
        dict(theta0=5.0),
        dict(backend="magic"),
        dict(model="custom-pde", backend="closed-form"),
        dict(chunk_size=0),
    ]
    for repl in bad:
        cfg = ExperimentConfig(**{**BASE, **repl})
        with pytest.raises(ConfigurationError):
            cfg.validate()


def test_lone_pde_bound_is_a_configuration_error():
    # one bound alone used to be dropped for the default rectangle
    config = ExperimentConfig(**{**BASE, "model": "custom-pde", "model_params": {},
                                 "backend": "pde"})
    bundle = config.validate()
    for lone in ({"x_min": -50.0}, {"x_max": 50.0}):
        with pytest.raises(ConfigurationError, match="given together"):
            build_value_function(bundle, dataclasses.replace(config, pde_params=lone), 0.1)


def test_validate_rejects_pde_params_the_backend_does_not_read():
    # the closed-form backend reads no pde parameter, the pde backend PDE_KEYS
    closed = ExperimentConfig(pde_params={"n_x": 3, "bogus": 1}, n_replications=100,
                              epsilon_list=(0.1,), t_report=(0.5,))
    with pytest.raises(ConfigurationError, match="'n_x' is not read by the closed-form"):
        closed.validate()
    with pytest.raises(ConfigurationError, match="'n_x' is not read"):
        dataclasses.replace(closed, pde_params={"n_x": 64}).validate()
    pde = ExperimentConfig(**{**BASE, "model": "custom-pde", "model_params": {},
                              "backend": "pde", "pde_params": {"n_x": 64, "bogus": 1}})
    with pytest.raises(ConfigurationError, match="'bogus' is not read by the pde"):
        pde.validate()
    assert dataclasses.replace(pde, pde_params={"n_x": 64}).validate().name == "custom-pde"


def test_ks_tail_probability_oracle():
    # 2 sum_k (-1)^{k-1} exp(-2 k^2 lam^2); classic table values
    assert abs(_ks_uniform_p(1.0) - 0.2700) < 1e-4
    assert abs(_ks_uniform_p(0.5) - 0.9639) < 1e-4
    assert _ks_uniform_p(3.0) < 1e-7
    assert _ks_uniform_p(0.01) == 1.0


def test_normality_diagnostics_on_normal_sample():
    rng = np.random.default_rng(7)
    s = rng.normal(0.0, 2.0, 4000)
    rep = normality_diagnostics(s, 4.0)
    assert rep.n == 4000
    assert 0.9 < rep.var_ratio < 1.1
    assert rep.ks_p > 0.05
    # against the wrong target the test must reject hard
    assert normality_diagnostics(s, 1.0).ks_p < 1e-6


def test_normal_cdf_matches_scipy_ndtr():
    # the reports' normal CDF comes from math.erfc; scipy.special.ndtr is
    # the independent oracle
    from scipy.special import ndtr
    z = np.linspace(-38.0, 38.0, 400_001)
    assert np.max(np.abs(experiment._normal_cdf(z) - ndtr(z))) <= 4.5e-16
    assert experiment._normal_cdf(0.0) == 0.5
    assert experiment._normal_cdf(-40.0) == 0.0 and experiment._normal_cdf(40.0) == 1.0


def test_p_values_match_the_scipy_computation():
    # ks_p and the plug-in p_value against the same formulas on ndtr
    from scipy.special import ndtr
    rng = np.random.default_rng(29)
    for n, scale, target in ((100, 1.0, 1.0), (1000, 1.3, 1.5), (5000, 0.8, 0.7)):
        s = rng.normal(0.0, scale, n)
        cdf = ndtr(np.sort(s) / np.sqrt(target))
        d = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
        want = _ks_uniform_p(np.sqrt(n) * d)
        assert abs(normality_diagnostics(s, target).ks_p - want) <= 1e-12
    t = rng.normal(0.0, 3.0, 10_000)
    assert np.max(np.abs((1.0 - experiment._normal_cdf(t)) - (1.0 - ndtr(t)))) <= 1e-12
    rep = run_monte_carlo(ExperimentConfig(**{**BASE, "t_report": (0.25, 0.5, 0.75)}))
    for row in rep.plugin_rows:
        assert abs(row["p_value"] - float(1.0 - ndtr(row["t_stat"]))) <= 1e-12, row


def test_normality_diagnostics_guards():
    rng = np.random.default_rng(8)
    s = rng.normal(size=500)
    with pytest.raises(DiagnosticError):
        normality_diagnostics(s[:50], 1.0)
    with pytest.raises(DiagnosticError):
        normality_diagnostics(np.concatenate((s, [np.nan])), 1.0)
    with pytest.raises(DiagnosticError):
        normality_diagnostics(s, -1.0)
    with pytest.raises(DiagnosticError):
        normality_diagnostics(np.zeros(500), 1.0)


def test_monte_carlo_small_run():
    rep = run_monte_carlo(ExperimentConfig(**BASE))
    assert rep.failures == {0.1: 0}
    row = rep.rows[0]
    assert row["epsilon"] == 0.1 and row["t"] == 0.5
    assert 0.7 < row["ratioY"] < 1.3
    # linear payoff: Z_hat is exact, and the Z bound collapses with it
    assert row["riskZ"] == 0.0 and row["boundZ"] == 0.0
    assert math.isnan(row["ratioZ"])
    assert 0.75 < row["var_ratio_theta"] < 1.25
    assert row["ks_p"] > 0.01
    assert row["n_clamped"] == 0 and row["n_diverged"] == 0

    prow = rep.plugin_rows[0]
    assert prow["riskY_plugin"] > prow["riskY_onestep"]
    assert prow["t_stat"] > 3.0 and prow["p_value"] < 1e-3

    pil = rep.pilot_rows[0]
    assert abs(pil["pilot_var_limit"] - 12.0) < 1e-7
    assert 0.6 < pil["var_ratio"] < 1.4

    text = rep.summary_text()
    assert "wall_time_s" in text and "eps=0.1" in text


def test_reports_identical_across_chunking(tmp_path):
    a = run_monte_carlo(ExperimentConfig(**{**BASE, "chunk_size": 7}))
    b = run_monte_carlo(ExperimentConfig(**{**BASE, "chunk_size": 64}))
    for name, writer in (("report", "to_csv"), ("plugin", "plugin_to_csv"),
                         ("pilot", "pilot_to_csv")):
        fa = tmp_path / f"{name}_a.csv"
        fb = tmp_path / f"{name}_b.csv"
        getattr(a, writer)(fa)
        getattr(b, writer)(fb)
        assert fa.read_bytes() == fb.read_bytes(), name


def test_epsilon_block_builds_its_tables_once(monkeypatch):
    # the theta table and the limit weights depend on the block only, so a
    # block of many chunks integrates the limit flow only for them, in four
    # RK4 passes: once for the scan and once for the window nodes, once for
    # the information nodes (flow_batch) and once at theta0 (limit_weights)
    calls = {"rk4": 0, "flow_batch": 0, "limit_weights": 0, "run_batch": 0}
    for name in calls:
        real = getattr(engine, name)

        def spy(*args, _name=name, _real=real, **kw):
            calls[_name] += 1
            return _real(*args, **kw)

        monkeypatch.setattr(engine, name, spy)
    config = ExperimentConfig(**{**BASE, "model": "linear-ou", "model_params": {},
                                 "backend": "pde", "theta0": 0.5, "chunk_size": 40,
                                 "pde_params": {"n_x": 64, "n_t": 50}})
    block = run_epsilon_block(config.validate(), config, 0.1, 0, residuals=True)
    assert calls == {"rk4": 4, "flow_batch": 1, "limit_weights": 1, "run_batch": 4}
    assert not np.any(block.result.failed)
    assert block.result.xi.shape == (config.n_replications, 1)


def _count_calls(monkeypatch, module, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(module, name)

        def spy(*args, _name=name, _real=real, **kw):
            calls[_name] += 1
            return _real(*args, **kw)

        monkeypatch.setattr(module, name, spy)
    return calls


def test_study_builds_its_table_once(monkeypatch):
    # one table serves every noise level of a study: three RK4 passes, the
    # window flow twice (scan and nodes) and the information once
    # (flow_batch), for two epsilon blocks
    calls = _count_calls(monkeypatch, engine, ("rk4", "flow_batch", "run_batch"))
    config = ExperimentConfig(**{**BASE, "epsilon_list": (0.1, 0.05), "chunk_size": 60})
    report = run_monte_carlo(config)
    assert calls == {"rk4": 3, "flow_batch": 1, "run_batch": 6}
    assert report.failures == {0.1: 0, 0.05: 0}


def test_study_makes_one_limit_pass(monkeypatch):
    # three report times, two noise levels: the theta0 limit quantities come
    # from one pass, and no scalar limit flow is integrated
    calls = {"pass": 0, "solve_limit_ode": 0}
    real_pass, real_ode = estimation.limit_quantities, models.solve_limit_ode

    def spy_pass(*args, **kw):
        calls["pass"] += 1
        return real_pass(*args, **kw)

    def spy_ode(*args, **kw):
        calls["solve_limit_ode"] += 1
        return real_ode(*args, **kw)

    for module in (estimation, bsde, experiment):
        monkeypatch.setattr(module, "limit_quantities", spy_pass)
    monkeypatch.setattr(models, "solve_limit_ode", spy_ode)
    # no by-name import could bypass the spy
    assert not hasattr(bsde, "solve_limit_ode") and not hasattr(experiment, "solve_limit_ode")
    config = ExperimentConfig(**{**BASE, "epsilon_list": (0.1, 0.05),
                                 "t_report": (0.25, 0.5, 0.75)})
    report = run_monte_carlo(config)
    assert calls == {"pass": 1, "solve_limit_ode": 0}
    assert len(report.rows) == 6


def test_row_bounds_and_variance_target_share_the_information(monkeypatch):
    # boundY = udot^2 / I and the normality target 1/I read the same
    # I(theta0, t) of the study's one pass
    passes, targets = [], []
    real_pass, real_diag = estimation.limit_quantities, experiment.normality_diagnostics

    def spy_pass(*args, **kw):
        passes.append(real_pass(*args, **kw))
        return passes[-1]

    def spy_diag(samples, target_variance):
        targets.append(target_variance)
        return real_diag(samples, target_variance)

    monkeypatch.setattr(experiment, "limit_quantities", spy_pass)
    monkeypatch.setattr(experiment, "normality_diagnostics", spy_diag)
    config = ExperimentConfig(**{**BASE, "model": "linear-ou", "model_params": {},
                                 "backend": "pde", "theta0": 0.5,
                                 "pde_params": {"n_x": 64, "n_t": 50},
                                 "t_report": (0.25, 0.5, 0.75)})
    report = run_monte_carlo(config)
    (limit,) = passes
    vf = experiment.build_value_function(config.validate(), config, 0.1)
    for j, row in enumerate(report.rows):
        t = config.t_report[j]
        info = float(limit.info[limit.index(t)])
        udot, _ = vf.limit_theta_derivatives(t, float(limit.x[limit.index(t)]), 0.5)
        assert targets[j] == 1.0 / info
        assert row["boundY"] == float(udot) ** 2 / info
    assert report.pilot_rows[0]["pilot_var_limit"] == limit.d2


def test_abort_message_counts_rows_without_information():
    # S = max(theta - 1, 0)^2 at theta0 = 0.5: every flow with theta <= 1 is
    # flat, the pilots land where S_theta vanishes, and the rows fail for
    # their information, neither diverged nor flat
    def pos(th):
        return np.maximum(th - 1.0, 0.0)

    model = ModelSpec(
        drift=lambda th, t, x: pos(th) ** 2 + 0.0 * x,
        drift_dtheta=lambda th, t, x: 2.0 * pos(th) + 0.0 * x,
        drift_dx=lambda th, t, x: 0.0 * x, drift_dtheta_dx=lambda th, t, x: 0.0 * x,
        diffusion=lambda t, x: 1.0 + 0.0 * x, diffusion_dx=lambda t, x: 0.0 * x,
        theta_interval=(0.1, 1.9), x0=0.0, horizon=1.0, kappa=1.0, growth_const=2.0)
    bundle = dataclasses.replace(build_preset("custom-pde"), model=model)
    config = ExperimentConfig(**{**BASE, "model": "custom-pde", "model_params": {},
                                 "backend": "pde", "theta0": 0.5,
                                 "pde_params": {"n_x": 64, "n_t": 20}})
    m = config.n_replications
    with pytest.raises(ExperimentAbortedError,
                       match=f"{m} of {m} replications failed at epsilon=1e-06 "
                             rf"\(diverged 0, flat 0, information below floor {m}\)"):
        run_epsilon_block(bundle, config, 1e-6, 0)


def test_shrinking_window_study_structure(tmp_path):
    cfg = ExperimentConfig(**{**BASE, "epsilon_list": (0.1, 0.05),
                              "t_report": (1.0,), "n_steps": 400,
                              "n_replications": 100, "base_seed": 7})
    study = shrinking_window_study(cfg, kappa_list=(3.0,))
    assert [r["schedule"] for r in study.rows] == ["eps2-log"] * 2 + ["power-3"] * 2

    first = study.rows[0]
    # delta = eps^2 log(1/eps) = 0.02303 snaps to 9 nodes of the 1/400 grid
    assert first["window_nodes"] == 9
    assert abs(first["delta_snapped"] - 0.0225) < 1e-12
    assert first["ran"] and not first["flagged"]
    assert first["q95_sup_err"] > 0 and first["pilot_rmse_norm"] > 0

    # at eps = 0.05 the requested window falls under the node minimum
    skipped = study.rows[1]
    assert skipped["window_nodes"] == 3 and not skipped["ran"]
    assert math.isnan(skipped["q95_sup_err"])

    # eps^3 shrinks faster than the noise resolves theta: flagged, never run
    for r in study.rows[2:]:
        assert r["flagged"] and not r["ran"]
    assert study.contracted == {"eps2-log": False, "power-3": False}

    out = tmp_path / "study.csv"
    study.to_csv(out)
    text = out.read_text()
    assert "eps2-log" in text and "power-3" in text
    assert "schedule eps2-log: sup-error contracted=False" in study.summary_text()

    with pytest.raises(ConfigurationError):
        shrinking_window_study(cfg, kappa_list=(0.0,))


# three windows of the eps2-log schedule (92, 30 and 6 nodes); power-3 is flagged
WINDOWS = dict(BASE, epsilon_list=(0.1, 0.05, 0.02), t_report=(1.0,), n_steps=4000,
               n_replications=100, base_seed=7)


def test_window_study_integrates_the_information_once(monkeypatch):
    calls = _count_calls(monkeypatch, engine, ("flow_batch", "run_batch"))
    study = shrinking_window_study(ExperimentConfig(**WINDOWS), kappa_list=(3.0,))
    assert [r["ran"] for r in study.rows] == [True] * 3 + [False] * 3
    assert calls == {"flow_batch": 1, "run_batch": 3}


def test_window_tables_share_the_information_bit_for_bit(monkeypatch):
    # each window's block, reading the study's shared information part, must
    # be bit for bit the block that builds a table for its window alone
    config = ExperimentConfig(**WINDOWS)
    blocks = []
    real = experiment.run_epsilon_block

    def spy(*args, **kw):
        blocks.append((args, kw, real(*args, **kw)))
        return blocks[-1][2]

    monkeypatch.setattr(experiment, "run_epsilon_block", spy)
    shrinking_window_study(config, kappa_list=(3.0,))
    assert len(blocks) == 3
    tables = [kw["table"] for _, kw, _ in blocks]
    assert all(t.grid_info is tables[0].grid_info is not None for t in tables)
    for args, kw, block in blocks:
        alone = real(*args, **{**kw, "table": None}).result
        for f in dataclasses.fields(engine.BatchResult):
            got, want = getattr(block.result, f.name), getattr(alone, f.name)
            assert (got is None and want is None) or np.array_equal(got, want), f.name


@pytest.mark.parametrize("chunk", [7, 64])
def test_shared_path_buffer_matches_fresh_buffers(monkeypatch, chunk):
    # every chunk of a block simulates into the one path buffer it is handed;
    # with residuals each must be bit for bit the chunk that allocates its
    # own paths, the short last chunk too (150 = 21 * 7 + 3 = 2 * 64 + 22);
    # the paths end at the last report node
    config = ExperimentConfig(**{**BASE, "chunk_size": chunk})
    bundle = config.validate()
    last = engine.last_node(config.grid(bundle), config.t_report)
    assert last < config.n_steps
    shared = np.full((chunk, last + 1), np.nan)
    got = run_epsilon_block(bundle, config, 0.1, 0, residuals=True, paths=shared).result

    handed = []
    real = engine.run_batch

    def fresh(*args, paths, **kw):
        handed.append(paths)
        return real(*args, **kw)

    monkeypatch.setattr(engine, "run_batch", fresh)
    want = run_epsilon_block(bundle, config, 0.1, 0, residuals=True).result
    # a block given no buffer allocates one and hands it to every chunk
    assert len(handed) == -(-config.n_replications // chunk)
    assert all(p is handed[0] for p in handed) and handed[0].shape == shared.shape
    assert not np.any(got.failed) and np.all(got.xi != 0.0)
    for f in dataclasses.fields(engine.BatchResult):
        assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name


def test_a_run_hands_one_path_buffer_to_every_chunk(monkeypatch):
    handed = []
    real = engine.run_batch

    def spy(*args, **kw):
        handed.append(kw["paths"])
        return real(*args, **kw)

    monkeypatch.setattr(engine, "run_batch", spy)
    run_monte_carlo(ExperimentConfig(**{**BASE, "epsilon_list": (0.1, 0.05), "chunk_size": 60}))
    shrinking_window_study(ExperimentConfig(**WINDOWS), kappa_list=(3.0,))
    assert len(handed) == 6 + 3
    runs = (handed[:6], handed[6:])
    # the risk table's paths end at its last report, 0.5; the study's sup
    # statistic reads every node to T
    assert [r[0].shape for r in runs] == [(60, 101), (100, 4001)]
    assert all(p is r[0] for r in runs for p in r)


def test_a_run_draws_and_keeps_its_paths_only_to_the_last_report(monkeypatch):
    # reports at 0.25 and 0.5 on a 1000-step grid: every chunk draws 500
    # increments per path into a buffer of 501 columns
    drawn, handed = [], []
    real_draw, real_run = engine.increment_rows, engine.run_batch

    def draw(seed, sids, n_steps, h, out=None):
        drawn.append(n_steps)
        return real_draw(seed, sids, n_steps, h, out=out)

    def run(*args, **kw):
        handed.append(kw["paths"].shape)
        return real_run(*args, **kw)

    monkeypatch.setattr(engine, "increment_rows", draw)
    monkeypatch.setattr(engine, "run_batch", run)
    run_monte_carlo(ExperimentConfig(**{**BASE, "n_steps": 1000, "t_report": (0.25, 0.5),
                                        "n_replications": 100, "plugin": False}))
    assert drawn == [500] and handed == [(100, 501)]


def test_config_round_trip():
    d = config_to_dict(ExperimentConfig(**BASE))
    assert config_to_dict(ExperimentConfig(**d)) == d
