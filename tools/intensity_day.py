"""Write a synthetic traffic-intensity day for an n x n grid.

    PYTHONPATH=src python3 tools/intensity_day.py --out <file> [--n 22] [--mean 11] [--seed 7]

The file holds one segment per cell of `grid.make_grid(n)` (labels
g000000, g000001, ...), each with one row per 15-minute interval of
2024-04-18 (96 rows) at overlap fraction 1.0. Counts are Poisson(mean),
drawn from a generator seeded with --seed, cell by cell and interval by
interval. Point a config's `arrivals` at it with `kind: file` and the
grid made by `make_grid(n)` to run the intensity reader at city scale; the
default 22x22 day holds 46,464 rows.
"""
from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from curbsim.demand import INTENSITY_COLS
from curbsim.grid import make_grid

INTERVALS = 96


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--n", type=int, default=22)
    p.add_argument("--mean", type=float, default=11.0)
    p.add_argument("--seed", type=int, default=7)
    args = p.parse_args(argv)
    grid, _ = make_grid(args.n)
    counts = np.random.default_rng(args.seed).poisson(args.mean, (args.n * args.n, INTERVALS))
    stamps = [f"2024-04-18T{q // 4:02d}:{15 * (q % 4):02d}:00" for q in range(INTERVALS)]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(",".join(INTENSITY_COLS) + "\n")
        for k, label in enumerate(grid.cell_labels):
            fh.writelines(f"s{k},{ts},{c},{label},1.0\n" for ts, c in zip(stamps, counts[k].tolist()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
