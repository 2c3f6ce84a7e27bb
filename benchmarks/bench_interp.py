#!/usr/bin/env python3
"""Time periodic cubic interpolation of a scalar and a vector field.

Interpolation composes fields with the flow map: flow inversion, Eulerian
reconstruction, and semi-Lagrangian transport. A vector field shares one
stencil (indices and B-spline weights) across its components, so it costs
less than dim scalar calls. Run with ``PYTHONPATH=src``.
"""

import time

import numpy as np

from lamelab._interp import interp_periodic
from lamelab.fields import random_band_field
from lamelab.grid import Grid


def bench(values, pts, extent: float, repeats: int = 5) -> float:
    interp_periodic(values, pts, extent)  # warm-up
    t0 = time.perf_counter()
    for _ in range(repeats):
        interp_periodic(values, pts, extent)
    return (time.perf_counter() - t0) / repeats


def main():
    print(f"{'grid':>6} {'points':>9} {'scalar (ms)':>12} {'vector (ms)':>12} {'vector/scalar':>14}")
    for n_grid, n_points in [(64, 10_000), (128, 100_000), (256, 500_000)]:
        grid = Grid(2, n_grid, 16.0)
        vector = random_band_field(grid, 1, 6, seed=0, ncomp=2)
        pts = np.random.default_rng(1).uniform(-8.0, 8.0, size=(2, n_points))
        t_scalar = bench(vector[0], pts, grid.extent)
        t_vector = bench(vector, pts, grid.extent)
        print(
            f"{n_grid:>6} {n_points:>9} {t_scalar * 1e3:>12.2f} {t_vector * 1e3:>12.2f} "
            f"{t_vector / t_scalar:>13.2f}x"
        )


if __name__ == "__main__":
    main()
