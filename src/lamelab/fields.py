"""Deterministic test-field and rough-density generators.

Band-limited random fields are built from an explicit integer-mode list with
a seed-keyed draw per mode, so the same (seed, band) reproduces the same
continuum function on any resolution. That makes refinement studies compare
one function on two grids instead of two unrelated draws.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid, ifftn


def _mode_list(dim: int, kmin: float, kmax: float):
    """Half-lattice of integer modes with kmin <= |k| <= kmax, fixed order."""
    kint = int(np.ceil(kmax))
    axes = [range(-kint, kint + 1)] * dim
    modes = []
    for k in np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim):
        norm = float(np.sqrt(np.sum(k.astype(float) ** 2)))
        if not (kmin <= norm <= kmax):
            continue
        # keep one of each +-k pair: first nonzero entry positive
        lead = next((c for c in k if c != 0), 0)
        if lead > 0:
            modes.append(tuple(int(c) for c in k))
    return sorted(modes)


def band_modes(grid: Grid, kmin: float, kmax: float) -> list:
    """The half-lattice modes of random_band_field's band; raises ValueError
    unless the band is mean-free (kmin > 0), representable at grid.n
    (2 kmax < n) and holds an integer mode."""
    if kmin <= 0:
        raise ValueError("kmin must be positive so the field is mean-free")
    if 2 * kmax >= grid.n:
        raise ValueError(f"band |k| <= {kmax} not representable at n = {grid.n}")
    modes = _mode_list(grid.dim, kmin, kmax)
    if not modes:
        raise ValueError(f"no integer modes with {kmin} <= |k| <= {kmax}")
    return modes


def random_band_field(grid: Grid, kmin: float, kmax: float, seed: int, ncomp: int | None = None) -> np.ndarray:
    """Random real trigonometric polynomial supported on kmin <= |k| <= kmax,
    scaled to unit max-norm (its mean is zero: |k| >= kmin > 0 excludes the
    DC mode).

    Each mode k of the half-lattice adds a cos(2 pi k.x / L) + b sin(2 pi k.x / L)
    per component, with (a, b) drawn in mode order. The sum is one grid.ifftn
    of the half-spectrum coefficients times grid.size, which undoes the
    transform's 1/size exactly (size is a power of two).

    ncomp = None gives a scalar field, otherwise shape (ncomp, *grid.shape).
    """
    rng = np.random.default_rng(seed)
    modes = np.array(band_modes(grid, kmin, kmax))
    comps = 1 if ncomp is None else ncomp
    draws = rng.normal(size=(len(modes), comps, 2))
    # a cos + b sin = Re((a - ib) e^{i theta}); nodes start at -L/2, which
    # turns e^{i theta} into (-1)^(sum k) e^{2 pi i k.j / n} at node j
    sign = np.where(modes.sum(axis=1) % 2, -1.0, 1.0)[:, None]
    coef = 0.5 * sign * (draws[..., 0] - 1j * draws[..., 1])
    # the half spectrum keeps k_last >= 0: a mode with k_last < 0 enters as the
    # conjugate at -k, and one on the k_last = 0 plane at both k and -k
    spec = np.zeros((comps,) + grid.shape[:-1] + (grid.n // 2 + 1,), dtype=complex)
    up, down = modes[:, -1] >= 0, modes[:, -1] <= 0
    spec[(slice(None),) + tuple((modes[up] % grid.n).T)] = coef[up].T
    spec[(slice(None),) + tuple((-modes[down] % grid.n).T)] = np.conj(coef[down]).T
    out = ifftn(grid, spec * grid.size)
    peak = np.max(np.abs(out))
    if peak > 0:
        out = out / peak
    if ncomp is None:
        return out[0]
    return out


def delta_field(grid: Grid, index) -> np.ndarray:
    """Discrete delta at a node, scaled so its Riemann sum is one."""
    out = np.zeros(grid.shape)
    out[tuple(index)] = 1.0 / grid.cell_volume
    return out


def checkerboard_density(grid: Grid, m: float, cells: int = 2, sharpness: float = 6.0) -> np.ndarray:
    """Smoothed checkerboard with values in [m, 1/m] (plateaus at the bounds)."""
    if not (0 < m <= 1):
        raise ValueError(f"m must be in (0, 1], got {m}")
    g = np.ones(grid.shape)
    for a in range(grid.dim):
        s = np.sin(2.0 * np.pi * cells * grid.coords[a] / grid.extent)
        g = g * np.tanh(sharpness * s) / np.tanh(sharpness)
    return m ** (-g)


def trig_density(grid: Grid, m: float, seed: int = 0, kmax: float = 3.0, gain: float = 2.0) -> np.ndarray:
    """Thresholded random trigonometric polynomial mapped into [m, 1/m].

    The gain > 1 clips the profile hard at both bounds, producing the rough
    plateaued coefficients the variable-density runs exercise.
    """
    if not (0 < m <= 1):
        raise ValueError(f"m must be in (0, 1], got {m}")
    t = random_band_field(grid, 1.0, kmax, seed)
    g = np.clip(gain * t, -1.0, 1.0)
    return m ** (-g)


def random_time_profile(t_grid: np.ndarray, seed: int) -> np.ndarray:
    """Smooth positive-ish envelope over a time grid for forcing probes."""
    rng = np.random.default_rng(seed)
    a, b, c = rng.normal(size=3)
    tau = t_grid / max(t_grid[-1], 1e-30)
    return a * np.cos(np.pi * tau) + b * np.sin(2.0 * np.pi * tau) + 0.5 * c


__all__ = [
    "band_modes",
    "random_band_field",
    "delta_field",
    "checkerboard_density",
    "trig_density",
    "random_time_profile",
]
