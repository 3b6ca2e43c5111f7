"""Import footprint: loading the CLI pulls in only the SciPy parts it uses."""

import os
import subprocess
import sys

HEAVY_SCIPY = ("scipy.stats", "scipy.optimize", "scipy.ndimage")


def test_cli_import_skips_heavy_scipy_modules():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    probe = ("import sys, sngp.cli; "
             f"print(' '.join(m for m in {HEAVY_SCIPY!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []
