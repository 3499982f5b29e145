"""curbsim: grid-city on-street parking search simulator."""

from .engine import ArrivalsConfig, SimConfig, Simulation, run_simulation
from .grid import CellCoord, GridSpec, OccupancyState, load_grid, make_grid, manhattan
from .matching import INFEASIBLE, Assignment, CostMatrix, hungarian_assign
from .strategies import StrategyKind, dispatch

__version__ = "0.1.0"

__all__ = [
    "ArrivalsConfig",
    "Assignment",
    "CellCoord",
    "CostMatrix",
    "GridSpec",
    "INFEASIBLE",
    "OccupancyState",
    "SimConfig",
    "Simulation",
    "StrategyKind",
    "dispatch",
    "hungarian_assign",
    "load_grid",
    "make_grid",
    "manhattan",
    "run_simulation",
]
