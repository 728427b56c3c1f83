"""Command line front end.

Subcommands: simulate, estimate, approximate, pde-solve, experiment,
delta-study.  Configuration comes from a JSON file plus --set overrides;
--full swaps the quick built-in defaults for acceptance-scale ones, and any
explicit setting wins over either.  Each entry must have the type of its
default, and each pde and study entry its key's type.  Every run writes an
echo of its effective configuration next to its outputs, and rerunning from
that echo reproduces the outputs byte for byte.

Exit codes: 0 success, 1 configuration or validation problem, 2 runtime
failure.
"""

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from .bsde import approximate_bsde
from .errors import ConfigurationError, SnbsdeError
from .estimation import EstimationWindow, full_mle, mde_estimate, onestep_trace
from .experiment import (PDE_KEYS, ExperimentConfig, build_value_function, config_to_dict,
                         pde_grid, run_monte_carlo, shrinking_window_study,
                         unread_pde_params, _fmt, _write_csv)
from .grids import NoiseSource, TimeGrid
from .models import simulate_forward
from .pde import solve_semilinear_pde
from .presets import build_preset

# ExperimentConfig's defaults plus the keys only the command line has: the
# single-path noise level epsilon, the pde table (ExperimentConfig.pde_params
# plus the pde-solve parameter theta) and the study table
_DEFAULTS = {key: value for key, value in config_to_dict(ExperimentConfig()).items()
             if key != "pde_params"}
_DEFAULTS.update(epsilon=0.1, pde={}, study={})
# the type of each key of the pde and study tables; a list is of numbers
_TABLE_KINDS = {"pde": {key: int if key in ("n_x", "n_t") else float
                        for key in PDE_KEYS + ("theta",)}, "study": {"kappa_list": list}}
_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string", list: "a list of numbers", dict: "a table"}
# the subcommands whose pde table becomes ExperimentConfig.pde_params, so
# that experiment.unread_pde_params rules which keys they read
_STUDY_COMMANDS = {"approximate", "experiment", "delta-study"}
# the pde keys each other subcommand reads: pde-solve solves at the one theta
# pde.theta (theta0 by default), so it has no dtheta; the rest read none
_PDE_READ = {"pde-solve": set(_TABLE_KINDS["pde"]) - {"dtheta"}}

# acceptance-scale replication count for --full; explicit settings still win
_FULL_DEFAULTS = {
    "n_replications": 5000,
}


def _typed(key: str, value, kind):
    """value as kind: a bool only from true or false, an int from an
    integral number, a float from a number, and a list of numbers as a list
    of floats; anything else is a ConfigurationError that names key."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is list and isinstance(value, list):
        return [_typed(key, v, float) for v in value]
    if number and (kind is float or kind is int and float(value).is_integer()):
        return kind(value)
    if kind in (bool, str, dict) and isinstance(value, kind):
        return value
    raise ConfigurationError(f"configuration key '{key}' must be {_KIND_NAMES[kind]}, "
                             f"got {json.dumps(value)}")


def _typed_config(cfg: dict, command: str) -> dict:
    """cfg with every entry of the type of its default and every pde and
    study entry of its key's type, model_params left to the model's preset.
    An unknown key, a value of another type and a pde key that command does
    not read are ConfigurationErrors that name the key."""
    for key in cfg:
        if key not in _DEFAULTS:
            raise ConfigurationError(f"unknown configuration key '{key}'")
    cfg = {key: _typed(key, value, list if isinstance(_DEFAULTS[key], list)
                       else type(_DEFAULTS[key])) for key, value in cfg.items()}
    for table, kinds in _TABLE_KINDS.items():
        for key in cfg[table]:
            if key not in kinds:
                raise ConfigurationError(f"unknown configuration key '{table}.{key}'")
        cfg[table] = {key: _typed(f"{table}.{key}", value, kinds[key])
                      for key, value in cfg[table].items()}
    pde, backend = cfg["pde"], cfg["backend"]
    if command in _STUDY_COMMANDS:
        unread = unread_pde_params(backend, pde)
        where = "" if backend == "pde" else f" with backend {backend}"
    else:
        unread, where = [key for key in pde if key not in _PDE_READ.get(command, ())], ""
    if unread:
        raise ConfigurationError(
            f"configuration key 'pde.{unread[0]}' is not read by {command}{where}")
    # model_params keys are checked against the chosen model by the registry
    return cfg


def _parse_set(pairs):
    out = []
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigurationError(f"--set expects key=value, got '{pair}'")
        key, raw = pair.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        out.append((key.strip(), value))
    return out


def _apply_override(cfg: dict, key: str, value) -> None:
    parts = key.split(".")
    node = cfg
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            node[part] = {}
        node = node[part]
    node[parts[-1]] = value


def load_config(args) -> dict:
    cfg = json.loads(json.dumps(_DEFAULTS))  # deep copy
    if getattr(args, "full", False):
        cfg.update(json.loads(json.dumps(_FULL_DEFAULTS)))
    if args.config:
        with open(args.config) as fh:
            user = json.load(fh)
        if not isinstance(user, dict):
            raise ConfigurationError("configuration file must hold a JSON object")
        user.pop("command", None)  # echo files name the command that wrote them
        for key, value in user.items():
            if isinstance(value, dict) and isinstance(cfg.get(key), dict):
                cfg[key].update(value)
            else:
                cfg[key] = value
    for key, value in _parse_set(args.set):
        _apply_override(cfg, key, value)
    if args.seed is not None:
        cfg["base_seed"] = args.seed
    return _typed_config(cfg, args.command)


def _outdir(args, command: str) -> str:
    path = args.output or os.path.join(os.getcwd(), f"snbsde-{command}")
    os.makedirs(path, exist_ok=True)
    return path


def _echo(cfg: dict, command: str, outdir: str) -> None:
    payload = dict(cfg)
    payload["command"] = command
    with open(os.path.join(outdir, "echo.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_table(path, header, columns) -> None:
    rows = np.stack([np.asarray(c, dtype=float) for c in columns], axis=1)
    _write_csv(path, header, [dict(zip(header, row)) for row in rows])


def _experiment_config(cfg: dict) -> ExperimentConfig:
    """ExperimentConfig of the typed cfg, its lists as tuples."""
    shared = [f.name for f in fields(ExperimentConfig) if f.name in _DEFAULTS]
    return ExperimentConfig(pde_params=dict(cfg["pde"]), **{
        key: tuple(cfg[key]) if isinstance(cfg[key], list) else cfg[key] for key in shared})


def _simulate_path(cfg: dict, bundle):
    grid = TimeGrid(0.0, bundle.model.horizon, cfg["n_steps"])
    return simulate_forward(bundle.model, cfg["theta0"], cfg["epsilon"], grid,
                            NoiseSource(cfg["base_seed"], 0))


def cmd_simulate(cfg: dict, outdir: str) -> None:
    bundle = build_preset(cfg["model"], cfg["model_params"])
    X, W = _simulate_path(cfg, bundle)
    _write_table(os.path.join(outdir, "paths.csv"), ("t", "X", "W"),
                 (X.times, X.values, W.values))


def cmd_estimate(cfg: dict, outdir: str) -> None:
    bundle = build_preset(cfg["model"], cfg["model_params"])
    X, _ = _simulate_path(cfg, bundle)
    delta, epsilon = cfg["delta"], cfg["epsilon"]
    theta_pilot = mde_estimate(bundle.model, X, delta)
    trace = onestep_trace(bundle.model, theta_pilot, X, delta, epsilon)
    theta_full = full_mle(bundle.model, X, bundle.model.horizon, epsilon)
    _write_table(os.path.join(outdir, "estimate.csv"),
                 ("t", "theta_onestep", "fisher", "delta_tail"),
                 (trace.times, trace.theta_onestep, trace.fisher, trace.delta_tail))
    with open(os.path.join(outdir, "summary.txt"), "w") as fh:
        fh.write("estimate summary\n")
        fh.write(f"theta_pilot={_fmt(theta_pilot)}\n")
        fh.write(f"theta_full_mle={_fmt(theta_full)}\n")
        fh.write(f"delta_head={_fmt(trace.delta_head)}\n")
        fh.write(f"n_clamped={int(np.sum(trace.clamped))}\n")


def cmd_approximate(cfg: dict, outdir: str) -> None:
    bundle = build_preset(cfg["model"], cfg["model_params"])
    X, W = _simulate_path(cfg, bundle)
    epsilon = cfg["epsilon"]
    vf = build_value_function(bundle, _experiment_config(cfg), epsilon)
    approx = approximate_bsde(bundle.model, vf, X, W, EstimationWindow(cfg["delta"]), epsilon,
                              theta0=cfg["theta0"])
    _write_table(
        os.path.join(outdir, "approximation.csv"),
        ("t", "X", "Y_true", "Y_hat", "Z_true", "Z_hat", "theta_onestep"),
        (approx.times, approx.x_obs.values, approx.y_true.values,
         approx.y_hat.values, approx.z_true.values, approx.z_hat.values,
         approx.trace.theta_onestep),
    )


def cmd_pde_solve(cfg: dict, outdir: str) -> None:
    bundle = build_preset(cfg["model"], cfg["model_params"])
    theta = cfg["pde"].get("theta", cfg["theta0"])
    grid = pde_grid(bundle, {k: v for k, v in cfg["pde"].items() if k != "theta"})
    sol = solve_semilinear_pde(bundle.model, bundle.driver, bundle.terminal.f,
                               theta, cfg["epsilon"], grid)
    n_rows = sol.values.shape[0]
    stride = max(1, (n_rows - 1) // 100)
    keep = list(range(0, n_rows, stride))
    if keep[-1] != n_rows - 1:
        keep.append(n_rows - 1)
    ts, xs, us = [], [], []
    times = np.linspace(0.0, grid.horizon, n_rows)
    for k in keep:
        ts.append(np.full(grid.xs.size, times[k]))
        xs.append(grid.xs)
        us.append(sol.values[k])
    _write_table(os.path.join(outdir, "pde.csv"), ("t", "x", "u"),
                 (np.concatenate(ts), np.concatenate(xs), np.concatenate(us)))


def cmd_experiment(cfg: dict, outdir: str) -> None:
    report = run_monte_carlo(_experiment_config(cfg))
    report.to_csv(os.path.join(outdir, "report.csv"))
    report.pilot_to_csv(os.path.join(outdir, "pilots.csv"))
    if report.plugin_rows:
        report.plugin_to_csv(os.path.join(outdir, "plugin.csv"))
    with open(os.path.join(outdir, "summary.txt"), "w") as fh:
        fh.write(report.summary_text())


def cmd_delta_study(cfg: dict, outdir: str) -> None:
    # each study key is a keyword of shrinking_window_study, whose default holds unless set
    report = shrinking_window_study(_experiment_config(cfg), **cfg["study"])
    report.to_csv(os.path.join(outdir, "study.csv"))
    with open(os.path.join(outdir, "summary.txt"), "w") as fh:
        fh.write(report.summary_text())


_COMMANDS = {
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "approximate": cmd_approximate,
    "pde-solve": cmd_pde_solve,
    "experiment": cmd_experiment,
    "delta-study": cmd_delta_study,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snbsde",
        description="small-noise backward-equation approximation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a configuration entry (dotted keys allowed)")
        p.add_argument("--seed", type=int, help="override base_seed")
        p.add_argument("--full", action="store_true",
                       help="acceptance-scale defaults instead of quick ones")
        p.add_argument("--output", help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        outdir = _outdir(args, args.command)
        _echo(cfg, args.command, outdir)
        _COMMANDS[args.command](cfg, outdir)
    except (ConfigurationError, json.JSONDecodeError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except SnbsdeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
