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
the query points are taken in chunks of grid.chunks' budget; per chunk the
stencil's flat node indices and weights are computed once, every component
is gathered by one np.take and all are contracted by one einsum, so the
gather's memory does not grow with the point count. Each point and each
component comes out bit-identical to its own call, whatever the chunk, and a
stack's prefilter row to its own field's.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid, _check_field, chunks, fftn, ifftn


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
    """Cubic B-spline weights on nodes {-1, 0, 1, 2} for offsets s in [0, 1) of
    shape (..., m), shape (..., 4, m). Each multiple of s, s^2 and s^3 is
    formed once and shared by the weights that read it, and each weight is
    written into its row of the output."""
    s2 = s * s
    s3 = s2 * s
    s_3, s2_3, s3_3 = 3.0 * s, 3.0 * s2, 3.0 * s3
    out = np.empty(s.shape[:-1] + (4,) + s.shape[-1:])
    np.divide(1.0 - s_3 + s2_3 - s3, 6.0, out=out[..., 0, :])
    np.divide(4.0 - 6.0 * s2 + s3_3, 6.0, out=out[..., 1, :])
    np.divide(1.0 + s_3 + s2_3 - s3_3, 6.0, out=out[..., 2, :])
    np.divide(s3, 6.0, out=out[..., 3, :])
    return out


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
    lead = coeffs.shape[: coeffs.ndim - grid.dim]
    table = coeffs.reshape(-1, grid.size)
    points = coords.reshape(grid.dim, -1)
    out = np.empty((len(table), points.shape[1]))
    # a point holds its gathered stencil of every component and the stencil's flat indices
    for part in chunks(points.shape[1], 8 * 4**grid.dim * (len(table) + 1)):
        out[:, part] = _stencil_sum(grid, points[:, part], table)
    return out.reshape(lead + coords.shape[1:])


def _stencil_sum(grid: Grid, points: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The spline with coefficient rows table (k, grid.size) at the points
    (grid.dim, m): the 4^dim stencil of each point, weighted, shape (k, m)."""
    n = grid.n
    # fractional index of each query point on each axis; the origin of every axis is -L/2
    frac = (points + 0.5 * grid.extent) / grid.spacing
    base = np.floor(frac).astype(np.int64)
    weights = _bspline_weights(frac - base)  # (dim, 4, m)
    nodes = (base[:, None, :] + np.arange(-1, 3)[:, None]) % n  # (dim, 4, m)
    flat = nodes[0]
    for a in range(1, grid.dim):
        # row-major node index of the stencil, one new axis of 4 per grid axis: (4, ..., 4, m)
        flat = flat[..., None, :] * n + nodes[a]
    letters = "abc"[: grid.dim]
    spec = ",".join(f"{c}m" for c in letters) + f",z{letters}m->zm"  # "am,bm,zabm->zm" in 2D
    return np.einsum(spec, *weights, np.take(table, flat, axis=1))
