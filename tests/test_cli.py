import json

import numpy as np
import pytest

from snbsde import cli
from snbsde.cli import main
from snbsde.experiment import ExperimentConfig, config_to_dict


def _read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


def test_simulate_outputs_and_echo(tmp_path):
    out = tmp_path / "sim"
    rc = main(["simulate", "--set", "n_steps=50", "--seed", "11",
               "--output", str(out)])
    assert rc == 0
    header, data = _read_csv(out / "paths.csv")
    assert header == ["t", "X", "W"]
    assert data.shape == (51, 3)
    assert data[0, 0] == 0.0 and data[-1, 0] == 1.0
    echo = json.loads((out / "echo.json").read_text())
    assert echo["command"] == "simulate"
    assert echo["n_steps"] == 50 and echo["base_seed"] == 11


def test_echo_round_trip_reproduces_bytes(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["simulate", "--set", "n_steps=80", "--seed", "5",
                 "--output", str(a)]) == 0
    assert main(["simulate", "--config", str(a / "echo.json"),
                 "--output", str(b)]) == 0
    assert (a / "paths.csv").read_bytes() == (b / "paths.csv").read_bytes()


def test_full_flag_scales_defaults_but_yields_to_overrides(tmp_path):
    # simulate ignores n_replications, so the echo shows the resolution order
    # without paying for an acceptance-scale run
    out = tmp_path / "full"
    assert main(["simulate", "--full", "--set", "n_steps=50",
                 "--output", str(out)]) == 0
    echo = json.loads((out / "echo.json").read_text())
    assert echo["n_replications"] == 5000

    out2 = tmp_path / "override"
    assert main(["simulate", "--full", "--set", "n_steps=50",
                 "--set", "n_replications=60", "--output", str(out2)]) == 0
    echo2 = json.loads((out2 / "echo.json").read_text())
    assert echo2["n_replications"] == 60

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_steps": 50, "n_replications": 40}))
    out3 = tmp_path / "cfgwins"
    assert main(["simulate", "--full", "--config", str(cfg),
                 "--output", str(out3)]) == 0
    echo3 = json.loads((out3 / "echo.json").read_text())
    assert echo3["n_replications"] == 40


def test_defaults_come_from_experiment_config():
    shared = config_to_dict(ExperimentConfig())
    assert set(cli._DEFAULTS) - set(shared) == {"epsilon", "pde", "study"}
    for key in set(cli._DEFAULTS) & set(shared):
        assert cli._DEFAULTS[key] == shared[key], key


def test_seed_changes_paths(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    main(["simulate", "--seed", "1", "--set", "n_steps=50", "--output", str(a)])
    main(["simulate", "--seed", "2", "--set", "n_steps=50", "--output", str(b)])
    assert (a / "paths.csv").read_bytes() != (b / "paths.csv").read_bytes()


def test_unknown_keys_are_named(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"modle": "linear-ou"}))
    assert main(["simulate", "--config", str(cfg), "--output",
                 str(tmp_path / "o")]) == 1
    assert "unknown configuration key 'modle'" in capsys.readouterr().err

    cfg.write_text(json.dumps({"pde": {"nx": 64}}))
    assert main(["pde-solve", "--config", str(cfg), "--output",
                 str(tmp_path / "o")]) == 1
    assert "unknown configuration key 'pde.nx'" in capsys.readouterr().err

    # an echo.json of a release that still had the top-level sup_stride
    cfg.write_text(json.dumps({"sup_stride": 0}))
    assert main(["experiment", "--config", str(cfg), "--output",
                 str(tmp_path / "o")]) == 1
    assert "unknown configuration key 'sup_stride'" in capsys.readouterr().err

    # a pde key the subcommand does not read is named, not ignored: pde-solve
    # solves at one theta, so it has no dtheta; the bundle commands build at
    # theta0, and read no pde key at all on the closed-form backend
    unread = [
        (["pde-solve", "--set", "pde.dtheta=0.3"], "'pde.dtheta' is not read by pde-solve"),
        (["experiment", "--set", "backend=pde", "--set", "pde.theta=0.5"],
         "'pde.theta' is not read by experiment"),
        (["delta-study", "--set", "backend=pde", "--set", "pde.theta=0.5"],
         "'pde.theta' is not read by delta-study"),
        (["approximate", "--set", "backend=pde", "--set", "pde.theta=0.5"],
         "'pde.theta' is not read by approximate"),
        (["experiment", "--set", "pde.n_x=64"],
         "'pde.n_x' is not read by experiment with backend closed-form"),
        (["simulate", "--set", "pde.n_x=64"], "'pde.n_x' is not read by simulate"),
    ]
    for argv, message in unread:
        assert main(argv + ["--output", str(tmp_path / "o")]) == 1, argv
        assert message in capsys.readouterr().err, argv


def test_lone_pde_bound_is_a_configuration_error(tmp_path, capsys):
    # one bound alone used to be dropped for the default rectangle
    for bound in ("pde.x_min=-50", "pde.x_max=50"):
        assert main(["pde-solve", "--set", bound, "--set", "pde.n_x=40",
                     "--output", str(tmp_path / "o")]) == 1
        assert "x_min and x_max must be given together" in capsys.readouterr().err


def test_configuration_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad),
                 "--output", str(tmp_path / "o")]) == 1
    assert main(["simulate", "--config", str(tmp_path / "missing.json"),
                 "--output", str(tmp_path / "o")]) == 1
    assert main(["experiment", "--set", "n_replications=10",
                 "--output", str(tmp_path / "o")]) == 1
    assert main(["simulate", "--set", "noequals",
                 "--output", str(tmp_path / "o")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv,key", [
    (["simulate", "--set", "n_steps=abc"], "n_steps"),
    (["experiment", "--set", "epsilon_list=0.1"], "epsilon_list"),
    (["delta-study", "--set", "study.kappa_list=3"], "study.kappa_list"),
    (["experiment", "--set", "backend=pde", "--set", "pde.n_x=abc"], "pde.n_x"),
    (["experiment", "--set", "plugin=no"], "plugin"),
    (["simulate", "--set", "model_params.sigma=abc"], "model_params.sigma"),
    (["simulate", "--set", "model_params.theta_interval=3"], "model_params.theta_interval"),
], ids=["n_steps", "epsilon_list", "kappa_list", "pde.n_x", "plugin", "sigma",
        "theta_interval"])
def test_a_wrongly_typed_value_is_a_configuration_error(tmp_path, capsys, argv, key):
    # the whole table is typed before anything is written: a bool only from
    # true or false, an integer only from an integral number, a list only
    # from a list
    out = tmp_path / "o"
    assert main(argv + ["--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: configuration key '{key}' must be"), err
    assert not (out / "echo.json").exists()


@pytest.mark.parametrize("argv,message", [
    (["simulate", "--set", "model_params.bogus=1"],
     "unknown model parameter 'bogus' for linear-constant-drift"),
    (["simulate", "--set", "model_params.theta_interval=[0.5,1.5,2]"],
     "theta_interval must have two entries"),
    (["simulate", "--set", "model=bogus"],
     "unknown model 'bogus'; choose from linear-constant-drift, linear-ou, custom-pde"),
    (["simulate", "--set", "model_params.terminal=nosuch"],
     "unknown terminal 'nosuch'; choose from cosine, identity, square"),
    (["simulate", "--set", "epsilon=-1"], "epsilon must be nonnegative"),
    (["experiment", "--set", "epsilon_list=[]"], "epsilon_list must be nonempty"),
    (["experiment", "--set", "delta=5"], "time 5.0 outside grid [0.0, 1.0]"),
    (["experiment", "--set", "n_replications=0"], "n_replications must be at least 100"),
    (["delta-study", "--set", "study.kappa_list=[-1]"], "kappa must be positive"),
], ids=["model-param", "theta-interval", "model", "terminal", "epsilon", "epsilon-list",
        "delta", "n-replications", "kappa"])
def test_a_rejected_value_writes_no_echo(tmp_path, capsys, argv, message):
    # a well-typed value that the subcommand rejects is a configuration
    # error too, and a rejected configuration is not echoed
    out = tmp_path / "o"
    assert main(argv + ["--output", str(out)]) == 1
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not (out / "echo.json").exists()


def test_typed_values_are_echoed(tmp_path):
    # an integral number for a float entry, and a float one for an integer
    # entry, are echoed as the type the run reads
    out = tmp_path / "o"
    assert main(["simulate", "--set", "theta0=1", "--set", "n_steps=50.0",
                 "--set", "plugin=false", "--output", str(out)]) == 0
    echo = json.loads((out / "echo.json").read_text())
    assert echo["theta0"] == 1.0 and isinstance(echo["theta0"], float)
    assert echo["n_steps"] == 50 and isinstance(echo["n_steps"], int)
    assert echo["plugin"] is False


def test_runtime_failure_exit_code(tmp_path, capsys):
    # u grows like exp(beta (T - t)), past the float range: the PDE march
    # stops with PdeDivergenceError
    rc = main(["pde-solve", "--set", "model=linear-ou", "--set", "model_params.beta=1e4",
               "--output", str(tmp_path / "o")])
    assert rc == 2
    assert "runtime error" in capsys.readouterr().err
    # the configuration was accepted, so the failed run can be replayed
    echo = json.loads((tmp_path / "o" / "echo.json").read_text())
    assert echo["model_params"] == {"beta": 1e4}


def test_estimate_command(tmp_path):
    out = tmp_path / "est"
    rc = main(["estimate", "--set", "n_steps=500", "--output", str(out)])
    assert rc == 0
    header, data = _read_csv(out / "estimate.csv")
    assert header == ["t", "theta_onestep", "fisher", "delta_tail"]
    summary = (out / "summary.txt").read_text()
    full = float(summary.split("theta_full_mle=")[1].split("\n")[0])
    # constant drift: the one-step profile at T and the full estimate are
    # both the closed form X_T / T
    assert abs(data[-1, 1] - full) < 1e-10
    assert "theta_pilot=" in summary and "n_clamped=" in summary


def test_approximate_command(tmp_path):
    out = tmp_path / "app"
    rc = main(["approximate", "--set", "n_steps=400", "--output", str(out)])
    assert rc == 0
    header, data = _read_csv(out / "approximation.csv")
    assert header == ["t", "X", "Y_true", "Y_hat", "Z_true", "Z_hat",
                      "theta_onestep"]
    # terminal row: both columns evaluate the payoff at X_T
    assert abs(data[-1, 2] - data[-1, 3]) < 1e-9
    assert data[0, 0] == 0.1 and data[-1, 0] == 1.0


def test_pde_solve_command(tmp_path):
    out = tmp_path / "pde"
    rc = main(["pde-solve", "--set", "pde.x_min=-6", "--set", "pde.x_max=6",
               "--set", "pde.n_x=64", "--set", "pde.n_t=50",
               "--output", str(out)])
    assert rc == 0
    header, data = _read_csv(out / "pde.csv")
    assert header == ["t", "x", "u"]
    assert data.shape == (51 * 65, 3)
    last = data[data[:, 0] == 1.0]
    np.testing.assert_allclose(last[:, 2], last[:, 1], atol=1e-12)


def test_experiment_command(tmp_path):
    out = tmp_path / "exp"
    rc = main(["experiment", "--set", "epsilon_list=[0.1]",
               "--set", "n_steps=200", "--set", "n_replications=120",
               "--set", "t_report=[0.5]", "--output", str(out)])
    assert rc == 0
    for name in ("report.csv", "pilots.csv", "plugin.csv", "summary.txt",
                 "echo.json"):
        assert (out / name).exists(), name
    header, data = _read_csv(out / "report.csv")
    assert header[0] == "epsilon" and data.shape[0] == 1


def test_delta_study_command(tmp_path):
    out = tmp_path / "study"
    rc = main(["delta-study", "--set", "epsilon_list=[0.1]",
               "--set", "n_steps=400", "--set", "n_replications=100",
               "--set", "t_report=[1.0]", "--set", "study.kappa_list=[3]",
               "--output", str(out)])
    assert rc == 0
    text = (out / "study.csv").read_text()
    assert text.startswith("schedule,")
    assert "eps2-log" in text and "power-3" in text
    assert "contracted" in (out / "summary.txt").read_text()
