#!/usr/bin/env python3
"""Benchmark the periodic cubic interpolation backends (numba vs numpy).

The interpolation kernel dominates flow inversion, Eulerian reconstruction,
and semi-Lagrangian transport. It is not the package's hot loop: in the
standard flow scenario it takes about 15% of the run, and the theta-scheme's
CG (operator applies and FFTs) about 45%.
Run with LAMELAB_NO_NUMBA=1 to confirm the fallback selection works at
import time too.
"""

import time

import numpy as np

from lamelab._interp import get_backend, interp_periodic, set_backend
from lamelab.fields import random_band_field
from lamelab.grid import Grid


def bench(n_grid: int, n_points: int, repeats: int = 5):
    grid = Grid(2, n_grid, 16.0)
    values = random_band_field(grid, 1, 6, seed=0)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-8.0, 8.0, size=(2, n_points))

    results = {}
    for backend in ("numba", "numpy"):
        set_backend(backend)
        interp_periodic(values, pts, grid.extent)  # warm-up (JIT for numba)
        t0 = time.perf_counter()
        for _ in range(repeats):
            out = interp_periodic(values, pts, grid.extent)
        results[backend] = ((time.perf_counter() - t0) / repeats, out)
    return results


def main():
    print(f"default backend: {get_backend()}")
    print(f"{'grid':>6} {'points':>9} {'numba (ms)':>11} {'numpy (ms)':>11} {'speedup':>8} {'max diff':>10}")
    for n_grid, n_points in [(64, 10_000), (128, 100_000), (256, 500_000)]:
        res = bench(n_grid, n_points)
        t_nb, out_nb = res["numba"]
        t_np, out_np = res["numpy"]
        diff = float(np.max(np.abs(out_nb - out_np)))
        print(
            f"{n_grid:>6} {n_points:>9} {t_nb * 1e3:>11.2f} {t_np * 1e3:>11.2f} "
            f"{t_np / t_nb:>7.1f}x {diff:>10.2e}"
        )


if __name__ == "__main__":
    main()
