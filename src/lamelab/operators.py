"""Constant-coefficient operators and their exact semigroups.

Every operator function here is f(-G^) for one scalar function f of the
half-spectrum symbol of the elastic generator G = mu*Lap + (lam+mu)*grad(div),
applied on the half spectrum of the real FFT (grid.fftn/ifftn). Its symbol is
-(z0 I + (lam+mu) (xi~ xi~^T + N N^T)), z0 = mu|xi|^2, where xi~ and N are the
orthogonal Nyquist-rule pieces of xi (Grid.rfreq_split). Its eigenvalues are
z0 off span{xi~, N}, z0 + (lam+mu)|xi~|^2 on xi~ and z0 + (lam+mu)|N|^2 on N,
so

    f(-G^) = f(z0) I + sum over v = xi~, N of (f(z_v) - f(z0)) v v^T / |v|^2.

mu*Lap is the case lam = -mu (nu = mu), with the one eigenvalue z0 and no
pieces. lame_apply is f = -z, the semigroups are f = (-tz)^k e^{-tz}
(const_semigroup at k = 0, heat_norms' norms of them at any k), and the
Crank-Nicolson preconditioner of varcoef is f = 1/(a + z/2), a dense per-mode
matrix (_symbol_matrix) a solve builds per step size. A field's spectrum and its
coordinates on v/|v| are taken once (_spectral) and any number of f are
applied to them (_apply), for one field or a stack. Away from the Nyquist
planes xi~ = xi and N = 0, and this is the Hodge split: nu|xi|^2 on
curl-free modes, mu|xi|^2 on divergence-free ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, _check_field, fftn, ifftn, lp_norm


@dataclass(frozen=True)
class LameParams:
    """Viscosity pair (mu, lam), both finite; ellipticity requires mu > 0 and nu = lam + 2*mu > 0."""

    mu: float
    lam: float

    def __post_init__(self):
        if not (np.isfinite(self.mu) and self.mu > 0):
            raise ValueError(f"mu must be finite and positive, got {self.mu}")
        if not np.isfinite(self.lam):
            raise ValueError(f"lam must be finite, got {self.lam}")
        if not (self.nu > 0):
            raise ValueError(f"nu = lam + 2*mu must be positive, got {self.nu}")

    @property
    def nu(self) -> float:
        return self.lam + 2.0 * self.mu


def _check_vector(grid: Grid, u: np.ndarray) -> np.ndarray:
    u = _check_field(grid, u)
    if u.ndim < grid.dim + 1 or u.shape[-grid.dim - 1] != grid.dim:
        raise ValueError(f"expected vector field or stack of them (..., dim, *shape), got {u.shape}")
    return u


def _eigen(grid: Grid, gen: LameParams) -> tuple:
    """Eigen-decomposition of the half-spectrum symbol -G^ of gen (module docstring):
    (z0, pieces) with z0 the eigenvalue off the pieces and (z_v, e_v) per unit
    direction e_v = v/|v| of grid.rfreq_split. mu*Lap (lam + mu = 0) has no
    pieces: there they would add exact zeros, and cost a coordinate pass each."""
    z0 = gen.mu * grid.rfreq_sq
    if gen.lam + gen.mu == 0.0:
        return z0, []
    units, sq = grid.rfreq_split
    return z0, [(z0 + (gen.lam + gen.mu) * s, e) for e, s in zip(units, sq)]


def _spectral(grid: Grid, u: np.ndarray, gen: LameParams) -> tuple:
    """The spectral data of u that _apply reads, taken once per vector field or
    stack of them (..., dim, *shape): the decomposition of -G^, the half
    spectrum u_hat and e_v.u_hat per piece, contracted over the component axis."""
    z0, pieces = _eigen(grid, gen)
    u_hat = fftn(grid, _check_vector(grid, u))
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


def _symbol_matrix(grid: Grid, gen: LameParams, f) -> np.ndarray:
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


def lame_apply(grid: Grid, u: np.ndarray, gen: LameParams) -> np.ndarray:
    """Spectral application of the elastic operator mu*Lap + (lam+mu)*grad(div)
    to a vector field or a stack of them (..., dim, *shape)."""
    return _apply(grid, _spectral(grid, u, gen), np.negative)


def const_semigroup(grid: Grid, u: np.ndarray, t: float, gen: LameParams) -> np.ndarray:
    """Heat flow of the generator at time t >= 0 (exact per-frequency decay)."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    return _apply(grid, _spectral(grid, u, gen), _heat(t, 0))


def heat_norms(grid: Grid, u: np.ndarray, gen: LameParams, times, k: int, p: float) -> np.ndarray:
    """||(tG)^k e^{tG} u||_p at each time t of times, from one spectrum of u."""
    spec = _spectral(grid, u, gen)
    del u  # a caller's temporary (mean_free(u), rho * x) is not held through the loop: holding it
    # there made a 3D N = 32 heat profile about 30% slower, through the heap's state, not arithmetic
    return np.array([lp_norm(grid, _apply(grid, spec, _heat(t, k)), p) for t in times])
