"""Constant-coefficient operators and their exact semigroups.

Every operator function here is f(-G^) for one scalar function f of the
half-spectrum symbol of a generator G, applied on the half spectrum of the
real FFT (grid.fftn/ifftn). c*Lap has the one eigenvalue c|xi|^2. The elastic
operator mu*Lap + (lam+mu)*grad(div) has the symbol
-(z0 I + (lam+mu) (xi~ xi~^T + N N^T)), z0 = mu|xi|^2, where xi~ and N are the
orthogonal Nyquist-rule pieces of xi (Grid.rfreq_split). Its eigenvalues are
z0 off span{xi~, N}, z0 + (lam+mu)|xi~|^2 on xi~ and z0 + (lam+mu)|N|^2 on N,
so

    f(-G^) = f(z0) I + sum over v = xi~, N of (f(z_v) - f(z0)) v v^T / |v|^2.

lame_apply is f = -z, the semigroups are f = (-tz)^k e^{-tz}, and the CG
preconditioner of varcoef is f = 1/(a + theta z). A field's spectrum and its
coordinates on v/|v| are taken once (_spectral) and any number of f are
applied to them (_apply), for one field or a stack. Away from the Nyquist
planes xi~ = xi and N = 0, and this is the Hodge split: nu|xi|^2 on
curl-free modes, mu|xi|^2 on divergence-free ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .grid import Grid, _check_field, fftn, ifftn


@dataclass(frozen=True)
class LameParams:
    """Viscosity pair (mu, lam); ellipticity requires mu > 0 and nu = lam + 2*mu > 0."""

    mu: float
    lam: float

    def __post_init__(self):
        if not (self.mu > 0):
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not (self.nu > 0):
            raise ValueError(f"nu = lam + 2*mu must be positive, got {self.nu}")

    @property
    def nu(self) -> float:
        return self.lam + 2.0 * self.mu


@dataclass(frozen=True)
class ScaledLaplacian:
    """Generator c*Laplacian acting componentwise on any field."""

    c: float = 1.0

    def __post_init__(self):
        if not (self.c > 0):
            raise ValueError(f"diffusivity must be positive, got {self.c}")


Generator = Union[ScaledLaplacian, LameParams]


def _check_vector(grid: Grid, u: np.ndarray) -> np.ndarray:
    u = _check_field(grid, u)
    if u.ndim < grid.dim + 1 or u.shape[-grid.dim - 1] != grid.dim:
        raise ValueError(f"expected vector field or stack of them (..., dim, *shape), got {u.shape}")
    return u


def _eigen(grid: Grid, gen: Generator) -> tuple:
    """Eigen-decomposition of the half-spectrum symbol -G^ of gen (module docstring):
    (z0, pieces) with z0 the eigenvalue off the pieces and (z_v, e_v) per unit
    direction e_v = v/|v| of grid.rfreq_split. c*Lap has no pieces."""
    if isinstance(gen, ScaledLaplacian):
        return gen.c * grid.rfreq_sq, []
    z0 = gen.mu * grid.rfreq_sq
    units, sq = grid.rfreq_split
    return z0, [(z0 + (gen.lam + gen.mu) * s, e) for e, s in zip(units, sq)]


def _spectral(grid: Grid, u: np.ndarray, gen: Generator) -> tuple:
    """The spectral data of u that _apply reads, taken once per field or stack:
    the decomposition of -G^, the half spectrum u_hat and e_v.u_hat per piece,
    contracted over the component axis. c*Lap acts componentwise on any field,
    the elastic operator on a vector field or a stack of them (..., dim, *shape)."""
    z0, pieces = _eigen(grid, gen)
    check = _check_field if isinstance(gen, ScaledLaplacian) else _check_vector
    u_hat = fftn(grid, check(grid, u))
    return z0, pieces, u_hat, [np.sum(e * u_hat, axis=-grid.dim - 1) for _, e in pieces]


def _apply(grid: Grid, spec: tuple, f) -> np.ndarray:
    """f(-G^) u on the grid, from the spectral data of u (see _spectral)."""
    z0, pieces, u_hat, coords = spec
    del spec  # a spectrum taken for one f (lame_apply's stacks) is freed before the inverse transform
    f0 = f(z0)
    out_hat = f0 * u_hat
    del u_hat
    for (z, e), c in zip(pieces, coords):
        out_hat += e * np.expand_dims((f(z) - f0) * c, -grid.dim - 1)
    return ifftn(grid, out_hat)


def _symbol_matrix(grid: Grid, gen: Generator, f) -> np.ndarray:
    """f(-G^) per mode as a dense matrix, shape (dim, dim, n, ..., n/2 + 1)."""
    z0, pieces = _eigen(grid, gen)
    f0 = f(z0)
    mat = np.einsum("ab,...->ab...", np.eye(grid.dim), f0)
    for z, e in pieces:
        mat += np.einsum("a...,b...->ab...", (f(z) - f0) * e, e)
    return mat


def _heat(t: float, k: int):
    """The f of (tG)^k e^{tG}: z -> (-tz)^k e^{-tz}."""
    return lambda z: (-t * z) ** k * np.exp(-t * z)


def lame_apply(grid: Grid, u: np.ndarray, gen: Generator) -> np.ndarray:
    """Spectral application of a constant-coefficient generator: the elastic
    operator mu*Lap + (lam+mu)*grad(div) to a vector field or a stack of them
    (..., dim, *shape), or c*Lap to any field."""
    return _apply(grid, _spectral(grid, u, gen), np.negative)


def const_semigroup(grid: Grid, u: np.ndarray, t: float, gen: Generator) -> np.ndarray:
    """Heat flow of the generator at time t >= 0 (exact per-frequency decay)."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    return _apply(grid, _spectral(grid, u, gen), _heat(t, 0))
