import os
import subprocess
import sys

import snbsde

SRC = os.path.dirname(os.path.dirname(os.path.abspath(snbsde.__file__)))


def test_every_public_name_resolves():
    assert [name for name in snbsde.__all__ if not hasattr(snbsde, name)] == []


def test_import_leaves_scipy_out():
    # scipy.special costs most of the import; only the diagnostics pay for it
    code = ("import sys, snbsde, snbsde.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
