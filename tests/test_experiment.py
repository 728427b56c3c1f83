import dataclasses
import math

import numpy as np
import pytest

from snbsde import engine
from snbsde.errors import ConfigurationError, DiagnosticError
from snbsde.experiment import (ExperimentConfig, _ks_uniform_p, config_to_dict,
                               normality_diagnostics, run_epsilon_block,
                               run_monte_carlo, shrinking_window_study)

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
    assert abs(pil["pilot_var_limit"] - 12.0) < 1e-4
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
    # block of many chunks integrates the limit flow only for them: once for
    # the scan and once for the window nodes (rk4_sensitivity), once for the
    # information nodes (flow_batch) and once at theta0 (limit_weights)
    calls = {"rk4_sensitivity": 0, "flow_batch": 0, "limit_weights": 0, "run_batch": 0}
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
    assert calls == {"rk4_sensitivity": 2, "flow_batch": 1, "limit_weights": 1,
                     "run_batch": 4}
    assert not np.any(block.result.failed)
    assert block.result.xi.shape == (config.n_replications, 1)


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


def test_config_round_trip():
    d = config_to_dict(ExperimentConfig(**BASE))
    assert config_to_dict(ExperimentConfig(**d)) == d
