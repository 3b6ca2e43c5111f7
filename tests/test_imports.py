"""Import footprint: the package is NumPy only at run time; SciPy serves the
tests as an oracle, so loading the CLI must not load any of it."""

import os
import subprocess
import sys


def test_cli_import_loads_no_scipy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    probe = ("import sys, sngp.cli; "
             "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []
