"""Importing curbsim and its CLI loads neither numba nor scipy.

numpy is the only runtime dependency. Importing scipy's assignment solver
after curbsim.cli would add about 0.46 s and 46 MB of resident memory to
every process (scipy 1.17, 2-core x86-64 Linux).
"""
import os
import subprocess
import sys
from pathlib import Path

import curbsim

SNIPPET = "import sys, curbsim, curbsim.cli; print(sorted({'numba', 'scipy'} & set(sys.modules)))"


def test_cli_import_loads_neither_numba_nor_scipy():
    # the child imports the same curbsim source tree as this process
    src = str(Path(curbsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", SNIPPET], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"
