"""cord-approx outcomes do not depend on the BLAS thread count.

The ridge retrain's sums run outside BLAS, so a run gives the same
outcomes whatever number of threads OpenBLAS (or MKL/OpenMP) may use.
"""
import os
import subprocess
import sys
from pathlib import Path

import curbsim

REPO = Path(__file__).resolve().parents[1]

# six hours of the benchmark's 22x22 city: six hourly retrains
SNIPPET = """
import dataclasses
from curbsim.engine import run_simulation
from curbsim.grid import make_grid
from perfbench.workloads import agent_ticks, city22_config, lattice_capacity, outcome_digest
cfg = dataclasses.replace(city22_config("cord-approx", 7), horizon=360)
grid, _ = make_grid(22, capacity=1, zones=3)
_, results = run_simulation(cfg, grid=grid, capacity=lattice_capacity(22))
print(agent_ticks(results[0].outcomes, cfg.horizon), outcome_digest(results[0].outcomes))
"""


def run_with_threads(threads: int) -> str:
    src = str(Path(curbsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, str(REPO), os.environ.get("PYTHONPATH")]))
    n = str(threads)
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n, MKL_NUM_THREADS=n)
    out = subprocess.run([sys.executable, "-c", SNIPPET], capture_output=True, text=True, env=env,
                         check=True, timeout=600)
    return out.stdout.strip()


def test_cord_approx_outcomes_independent_of_blas_threads():
    one = run_with_threads(1)
    assert one
    assert run_with_threads(2) == one
