"""Periodic cubic-spline interpolation, the composition kernel of the
Lagrangian code.

Interpolation is the cardinal cubic B-spline scheme: an FFT prefilter turns
nodal samples into spline coefficients (exact on uniform periodic grids),
then each query gathers a 4^dim stencil of coefficients with B-spline
weights. The interpolant is C^2, reproduces cubics exactly, and converges at
O(h^4). Fields may carry leading component axes (vectors, matrices, or any
stack of fields sampled at one point set): the stencil's flat node indices
and weights are computed once per call, every component is gathered by one
np.take and all are contracted by one einsum. Each component comes out
bit-identical to its own call, and a stack's prefilter row to its own field's.
"""

from __future__ import annotations

import numpy as np
import scipy.fft


# perfbench/run.py's environment probe records this name; without it every benchmark run fails.
def get_backend() -> str:
    return "numpy"


def spline_prefilter(values: np.ndarray, dim: int) -> np.ndarray:
    """Cubic B-spline coefficients of periodic nodal samples (FFT division)
    over the trailing ``dim`` axes; leading axes are components.

    The interpolation condition is a cyclic (1/6, 4/6, 1/6) convolution per
    axis, diagonal in Fourier space with symbol (4 + 2 cos(2 pi k / N)) / 6.
    The symbol is even in k, so on the half spectrum of a real transform the
    last axis takes its first N/2 + 1 entries unchanged.
    """
    values = np.asarray(values, dtype=np.float64)
    axes = tuple(range(values.ndim - dim, values.ndim))
    hat = scipy.fft.rfftn(values, axes=axes)
    for axis in axes:
        n = values.shape[axis]
        sym = (4.0 + 2.0 * np.cos(2.0 * np.pi * np.fft.fftfreq(n))) / 6.0
        shape = [1] * values.ndim
        shape[axis] = hat.shape[axis]
        hat = hat / sym[: hat.shape[axis]].reshape(shape)
    return scipy.fft.irfftn(hat, s=values.shape[values.ndim - dim:], axes=axes)


def _bspline_weights(s):
    """Cubic B-spline weights on nodes {-1, 0, 1, 2} for offsets s in [0, 1), shape (4, m)."""
    s2 = s * s
    s3 = s2 * s
    w0 = (1.0 - 3.0 * s + 3.0 * s2 - s3) / 6.0
    w1 = (4.0 - 6.0 * s2 + 3.0 * s3) / 6.0
    w2 = (1.0 + 3.0 * s + 3.0 * s2 - 3.0 * s3) / 6.0
    return np.stack([w0, w1, w2, s3 / 6.0])


def interp_periodic(
    values: np.ndarray, coords: np.ndarray, extent: float, prefiltered: bool = False
) -> np.ndarray:
    """Sample a periodic nodal field at arbitrary physical points.

    Parameters
    ----------
    values : ndarray, shape (*lead, n, ..., n) with dim trailing grid axes
        Nodal samples (node j at -L/2 + j*h), or spline coefficients from
        :func:`spline_prefilter` when ``prefiltered`` is set. Each leading
        component is interpolated; the result has shape (*lead, ...).
    coords : ndarray, shape (dim, ...)
        Physical query coordinates; wrapped periodically.
    extent : float
        Torus side length L.
    """
    coords = np.asarray(coords, dtype=np.float64)
    dim = coords.shape[0]
    grid_shape = np.shape(values)[np.ndim(values) - dim:]
    if dim not in (2, 3) or len(grid_shape) != dim or len(set(grid_shape)) != 1:
        raise ValueError(f"coords leading axis {dim} does not match field grid axes {grid_shape}")
    coeffs = np.ascontiguousarray(values if prefiltered else spline_prefilter(values, dim))
    n = grid_shape[0]
    h = extent / n
    weights, flat = [], np.zeros(coords[0].size, dtype=np.int64)
    for a in range(dim):
        # fractional index of each query point; origin of axis a is -L/2
        frac = (coords[a].ravel() + 0.5 * extent) / h
        base = np.floor(frac).astype(np.int64)
        weights.append(_bspline_weights(frac - base))
        # row-major node index of the stencil, one new axis of 4 per grid axis: (4, ..., 4, m)
        flat = flat[..., None, :] * n + (base + np.arange(-1, 3)[:, None]) % n
    letters = "abc"[:dim]
    spec = ",".join(f"{c}m" for c in letters) + f",z{letters}m->zm"  # "am,bm,zabm->zm" in 2D
    lead = coeffs.shape[: coeffs.ndim - dim]
    out = np.einsum(spec, *weights, np.take(coeffs.reshape(-1, n**dim), flat, axis=1))
    return out.reshape(lead + coords.shape[1:])
