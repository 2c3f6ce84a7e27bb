"""Periodic isotropic grids and the spectral toolbox built on them.

A field is a plain ndarray whose trailing ``dim`` axes are the spatial
axes (row-major over x1, x2, ...); any leading axes are components.
Scalar fields have shape ``grid.shape``, vector fields ``(dim, *shape)``,
matrix fields ``(dim, dim, *shape)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on the torus [-L/2, L/2)^dim.

    Parameters
    ----------
    dim : int
        Spatial dimension, 2 or 3.
    n : int
        Points per axis; a power of two, at least 8.
    extent : float
        Torus side length L, finite and > 0; all axes share n and L.
    """

    dim: int
    n: int
    extent: float

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"points per axis must be a power of two >= 8, got {self.n}")
        if not (np.isfinite(self.extent) and self.extent > 0):
            raise ValueError(f"extent must be finite and positive, got {self.extent}")

    @property
    def spacing(self) -> float:
        return self.extent / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def size(self) -> int:
        return self.n**self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def spatial_axes(self) -> tuple:
        return tuple(range(-self.dim, 0))

    @cached_property
    def coords(self) -> np.ndarray:
        """Node coordinates, shape (dim, *shape), axes in [-L/2, L/2)."""
        x1 = -0.5 * self.extent + self.spacing * np.arange(self.n)
        return np.stack(np.meshgrid(*([x1] * self.dim), indexing="ij"))

    def _half_mesh(self, axis_values: np.ndarray) -> np.ndarray:
        """Stack a per-axis 1D array (indexed like fftfreq) over the half spectrum."""
        axes = [axis_values] * (self.dim - 1) + [axis_values[: self.n // 2 + 1]]
        return np.stack(np.meshgrid(*axes, indexing="ij"))

    @cached_property
    def rfreq(self) -> np.ndarray:
        """Angular frequencies xi = 2*pi*k/L per axis on the half spectrum,
        shape (dim, n, ..., n/2 + 1).

        The Nyquist entry of every axis is -pi/h, as in fftfreq (rfftfreq would
        label the last one +pi/h).
        """
        return self._half_mesh(2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing))

    @cached_property
    def rfreq_sq(self) -> np.ndarray:
        """|xi|^2 on the half spectrum, shape (n, ..., n/2 + 1)."""
        return np.sum(self.rfreq**2, axis=0)

    @cached_property
    def rmultiplicity(self) -> np.ndarray:
        """Full-spectrum modes each half-spectrum column stands for, shape (n/2 + 1,),
        broadcasting over the last axis: 1 at k = 0 and k = n/2, which are their own
        conjugate columns, 2 in between (the column and its conjugate)."""
        m = np.full(self.n // 2 + 1, 2.0)
        m[[0, -1]] = 1.0
        return m

    @cached_property
    def rnyquist(self) -> np.ndarray:
        """True where an axis sits at its Nyquist entry k = n/2, shape (dim, n, ..., n/2 + 1)."""
        return self._half_mesh(np.arange(self.n) == self.n // 2)

    @cached_property
    def rfreq_split(self) -> tuple:
        """xi split by the Nyquist rule into the orthogonal pieces xi~ and N on the
        half spectrum, as (unit directions, squared lengths) of shapes
        (2, dim, n, ..., n/2 + 1) and (2, n, ..., n/2 + 1); a zero piece has a zero
        direction. xi~ is xi with each axis's Nyquist entry zeroed, N holds just
        those entries (-pi/h).

        On the full spectrum the real part of a complex inverse DFT keeps only the
        Hermitian part of a symbol. Where one axis sits at its Nyquist entry and
        another does not, the mode's partner has the other axis's frequency negated
        but not the Nyquist one, so the mixed entries xi_a xi_b of xi xi^T cancel:
        the real-data symbol of xi xi^T is xi~ xi~^T + N N^T. Both outer products
        are even in k, so a symbol built from them maps Hermitian data to Hermitian
        data, as the real inverse transform assumes.
        """
        pieces = np.stack([np.where(self.rnyquist, 0.0, self.rfreq), np.where(self.rnyquist, self.rfreq, 0.0)])
        sq = np.sum(pieces**2, axis=1)
        return pieces / np.sqrt(np.where(sq > 0.0, sq, np.inf))[:, None], sq

    @cached_property
    def rderiv(self) -> np.ndarray:
        """Odd-derivative symbols i*xi_a on the half spectrum, shape (dim, n, ..., n/2 + 1).

        Every Nyquist plane is zeroed: mode k = -n/2 has no conjugate partner,
        so an odd symbol carries no sign information there for real data.
        """
        return 1j * self.rfreq * ~np.any(self.rnyquist, axis=0)

    def min_image(self, delta: np.ndarray) -> np.ndarray:
        """Wrap coordinate differences into [-L/2, L/2)."""
        L = self.extent
        return (delta + 0.5 * L) % L - 0.5 * L


def _check_field(grid: Grid, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u)
    if u.shape[-grid.dim:] != grid.shape:
        raise ValueError(f"field shape {u.shape} does not end in grid shape {grid.shape}")
    return u


def fftn(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Forward DFT of a real field over the spatial axes, onto the half spectrum
    (the real FFT): the last spatial axis keeps k = 0..n/2, so the trailing shape
    is (n, ..., n/2 + 1). This is the package's only spectral layout."""
    return scipy.fft.rfftn(_check_field(grid, u), axes=grid.spatial_axes)


def ifftn(grid: Grid, u_hat: np.ndarray) -> np.ndarray:
    """Inverse of fftn: the real field of Hermitian-symmetric half-spectrum data."""
    return scipy.fft.irfftn(u_hat, s=grid.shape, axes=grid.spatial_axes)


def jacobian(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Spectral derivative of every component of a field or stack of fields:
    u of shape (..., *shape) gives (..., dim, *shape), where index a of the
    axis before the spatial ones holds d/dx_a. A scalar field gives its
    gradient, a vector field v its Jacobian out[i, j] = d v_i / d x_j."""
    u_hat = np.expand_dims(fftn(grid, u), -grid.dim - 1)
    return ifftn(grid, grid.rderiv * u_hat)


def divergence(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Spectral divergence over the axis just before the spatial axes, for a
    vector field or any stack of them: shape (..., dim, *shape) -> (..., *shape)."""
    return ifftn(grid, np.sum(grid.rderiv * fftn(grid, v), axis=-grid.dim - 1))


def field_magnitude(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Pointwise Euclidean magnitude over all component axes."""
    u = _check_field(grid, u)
    comp_axes = tuple(range(u.ndim - grid.dim))
    if not comp_axes:
        return np.abs(u)
    return np.sqrt(np.sum(u**2, axis=comp_axes))


def lp_norm(grid: Grid, u: np.ndarray, p: float) -> float:
    """Riemann-sum L^p norm, (h^n sum |u|^p)^(1/p); p = inf is the node max.

    Components are collapsed to the pointwise Euclidean magnitude first.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    mag = field_magnitude(grid, u)
    if np.isinf(p):
        return float(np.max(mag))
    return float((grid.cell_volume * np.sum(mag**p)) ** (1.0 / p))


def mean_free(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Recenter each component to zero mean (torus stand-in for decaying data)."""
    u = _check_field(grid, u)
    return u - np.mean(u, axis=grid.spatial_axes, keepdims=True)


def integral(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Riemann-sum integral over the torus, componentwise."""
    u = _check_field(grid, u)
    return grid.cell_volume * np.sum(u, axis=grid.spatial_axes)
