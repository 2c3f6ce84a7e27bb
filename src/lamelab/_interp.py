"""Periodic cubic-spline interpolation, the composition kernel of the
Lagrangian code.

Interpolation is the cardinal cubic B-spline scheme on a ``Grid``: the caller
turns nodal samples into spline coefficients once with
:func:`spline_prefilter` (a division in Fourier space through the grid's
transform pair, exact on uniform periodic grids), and
:func:`interp_periodic` samples coefficients at arbitrary points by gathering
a 4^dim stencil with B-spline weights. The interpolant is C^2, reproduces
cubics exactly, and converges at O(h^4). Fields may carry leading component
axes (vectors, matrices, or any stack of fields sampled at one point set):
the stencil's flat node indices and weights are computed once per call,
every component is gathered by one np.take and all are contracted by one
einsum. Each component comes out bit-identical to its own call, and a
stack's prefilter row to its own field's.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid, _check_field, fftn, ifftn


# perfbench/run.py's environment probe records this name; without it every benchmark run fails.
def get_backend() -> str:
    return "numpy"


def spline_prefilter(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Cubic B-spline coefficients of periodic nodal samples over the grid's
    spatial axes; leading axes are components.

    The interpolation condition is a cyclic (1/6, 4/6, 1/6) convolution per
    axis, diagonal in Fourier space with symbol (4 + 2 cos(2 pi k / n)) / 6.
    Every axis has n points, so one symbol serves all; it is even in k, so on
    the half spectrum the last axis takes its first n/2 + 1 entries unchanged.
    """
    hat = fftn(grid, values)
    sym = (4.0 + 2.0 * np.cos(2.0 * np.pi * np.fft.fftfreq(grid.n))) / 6.0
    for axis in grid.spatial_axes:
        hat = hat / sym[: hat.shape[axis]].reshape((-1,) + (1,) * (-1 - axis))
    return ifftn(grid, hat)


def _bspline_weights(s):
    """Cubic B-spline weights on nodes {-1, 0, 1, 2} for offsets s in [0, 1), shape (4, m)."""
    s2 = s * s
    s3 = s2 * s
    w0 = (1.0 - 3.0 * s + 3.0 * s2 - s3) / 6.0
    w1 = (4.0 - 6.0 * s2 + 3.0 * s3) / 6.0
    w2 = (1.0 + 3.0 * s + 3.0 * s2 - 3.0 * s3) / 6.0
    return np.stack([w0, w1, w2, s3 / 6.0])


def interp_periodic(grid: Grid, coords: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Sample the periodic spline with the given coefficients at arbitrary physical points.

    Parameters
    ----------
    grid : Grid
        The grid the coefficients live on (node j at -L/2 + j*h).
    coords : ndarray, shape (grid.dim, ...)
        Physical query coordinates; wrapped periodically.
    coeffs : ndarray, shape (*lead, *grid.shape)
        Spline coefficients from :func:`spline_prefilter`. Each leading
        component is interpolated; the result has shape (*lead, ...).
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape[0] != grid.dim:
        raise ValueError(f"coords leading axis {coords.shape[0]} does not match grid dimension {grid.dim}")
    coeffs = np.ascontiguousarray(_check_field(grid, coeffs))
    n = grid.n
    weights, flat = [], np.zeros(coords[0].size, dtype=np.int64)
    for a in range(grid.dim):
        # fractional index of each query point; origin of axis a is -L/2
        frac = (coords[a].ravel() + 0.5 * grid.extent) / grid.spacing
        base = np.floor(frac).astype(np.int64)
        weights.append(_bspline_weights(frac - base))
        # row-major node index of the stencil, one new axis of 4 per grid axis: (4, ..., 4, m)
        flat = flat[..., None, :] * n + (base + np.arange(-1, 3)[:, None]) % n
    letters = "abc"[: grid.dim]
    spec = ",".join(f"{c}m" for c in letters) + f",z{letters}m->zm"  # "am,bm,zabm->zm" in 2D
    lead = coeffs.shape[: coeffs.ndim - grid.dim]
    out = np.einsum(spec, *weights, np.take(coeffs.reshape(-1, grid.size), flat, axis=1))
    return out.reshape(lead + coords.shape[1:])
