import json
import os
import subprocess
import sys

import pytest

import snbsde

SRC = os.path.dirname(os.path.dirname(os.path.abspath(snbsde.__file__)))
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
# a small block: 100 replications of a 200-step grid at one noise level
SMALL = ("epsilon_list=(0.1,), delta=0.1, n_steps=200, n_replications=100, "
         "base_seed=99")


def _scipy_modules(code):
    """The scipy modules a fresh interpreter holds after running code."""
    code += ("; import json, sys; print(json.dumps(sorted("
             "m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True,
                         text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_every_public_name_resolves():
    assert [name for name in snbsde.__all__ if not hasattr(snbsde, name)] == []


def test_import_leaves_scipy_out():
    # scipy serves the PDE backend's tridiagonal solve only
    assert _scipy_modules("import snbsde, snbsde.cli") == []


@pytest.mark.parametrize("code", [
    "from snbsde.experiment import ExperimentConfig, run_monte_carlo; "
    f"run_monte_carlo(ExperimentConfig(t_report=(0.5,), plugin=True, {SMALL}))",
    "from snbsde.experiment import ExperimentConfig, shrinking_window_study; "
    f"shrinking_window_study(ExperimentConfig(t_report=(1.0,), {SMALL}), kappa_list=(3.0,))",
], ids=["monte-carlo", "window-study"])
def test_a_closed_form_run_imports_no_scipy(code):
    # the normal CDF of the KS test and of the plug-in p-value is math.erfc's
    assert _scipy_modules(code) == []


def test_the_experiment_command_imports_no_scipy(tmp_path):
    # -X importtime names every module the command line imports on stderr
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "snbsde.cli", "experiment",
         "--output", str(tmp_path)], env=ENV, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    imported = [line.split("|")[-1].strip() for line in out.stderr.splitlines()
                if line.startswith("import time:")]
    assert "snbsde.experiment" in imported
    assert [name for name in imported if name.split(".")[0] == "scipy"] == []


def test_a_pde_run_imports_the_lapack_solve_only():
    code = ("from snbsde.experiment import ExperimentConfig, run_monte_carlo; "
            "run_monte_carlo(ExperimentConfig(model='custom-pde', backend='pde', "
            f"t_report=(0.5,), pde_params={{'n_x': 40, 'n_t': 20}}, {SMALL}))")
    modules = _scipy_modules(code)
    assert "scipy.linalg" in modules
    assert [m for m in modules if m.split(".")[:2] == ["scipy", "special"]] == []
