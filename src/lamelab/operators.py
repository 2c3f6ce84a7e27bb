"""Constant-coefficient operators and their exact semigroups.

The elastic operator mu*Lap + (lambda+mu)*grad(div) diagonalizes per
frequency over the Hodge split: on curl-free modes it acts as nu*Lap with
nu = lambda + 2*mu, on divergence-free modes as mu*Lap. Everything here is
an exact per-frequency multiplication.

All of it runs on the half spectrum of the real FFT (grid.fftn/ifftn) through one
path: a field is transformed once and split into its Hodge parts
(_spectral_parts), and an isotropic symbol a(|xi|) P + b(|xi|) Q is applied
to the parts (_apply_symbols).

Nyquist rule. On the full spectrum the real part of a complex inverse DFT
keeps only the Hermitian part of a symbol. Where exactly one of two axes sits
at its Nyquist entry k = -n/2, the mode's partner has the other axis's
frequency negated but not the Nyquist one, so the mixed entries xi_a xi_b of
xi xi^T cancel. The real inverse grid.ifftn assumes a Hermitian input instead,
so the projector states the cancellation explicitly:
Q = (xi~ xi~^T + N N^T) / |xi|^2, where xi~ is xi with each axis's Nyquist
entry zeroed and N holds just those entries, signed -pi/h as in the complex
FFT. This reproduces the complex
path to rounding on data with Nyquist content.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
    if u.ndim != grid.dim + 1 or u.shape[0] != grid.dim:
        raise ValueError(f"expected vector field (dim, *shape), got {u.shape}")
    return u


@lru_cache(maxsize=8)
def _gradient_projector(grid: Grid) -> np.ndarray:
    """Q(xi) on the half spectrum with the Nyquist rule, shape (dim, dim, n, ..., n/2 + 1).

    Q = (xi~ xi~^T + N N^T) / |xi|^2 with Q(0) = 0, where xi~ is xi with each
    axis's Nyquist entry zeroed and N holds just those entries (-pi/h).
    """
    xi, ny = grid.rfreq, grid.rnyquist
    xi_t = np.where(ny, 0.0, xi)
    nyq = np.where(ny, xi, 0.0)
    xi2 = grid.rfreq_sq.copy()
    xi2[xi2 == 0.0] = np.inf  # sends the zero mode's Q-part to zero
    outer = np.einsum("a...,b...->ab...", xi_t, xi_t) + np.einsum("a...,b...->ab...", nyq, nyq)
    return outer / xi2


def _hodge_split(grid: Grid, u_hat: np.ndarray):
    """Split half-spectrum vector data into (divergence-free part, curl-free part).

    The zero mode goes entirely to the divergence-free part: the gradient
    projector annihilates constants.
    """
    q_hat = np.sum(_gradient_projector(grid) * u_hat[None], axis=1)
    return u_hat - q_hat, q_hat


def hodge_project(grid: Grid, u: np.ndarray, which: str) -> np.ndarray:
    """Apply the divergence-free ('P') or gradient ('Q') projector to a vector field."""
    if which not in ("P", "Q"):
        raise ValueError(f"which must be 'P' or 'Q', got {which!r}")
    p_hat, q_hat = _hodge_split(grid, fftn(grid, _check_vector(grid, u)))
    return ifftn(grid, p_hat if which == "P" else q_hat)


def _spectral_parts(grid: Grid, u: np.ndarray, gen: Generator) -> list:
    """Half spectrum of u split into the parts on which gen acts as a scalar
    -c|xi|^2: [u_hat] for c*Lap, [P u_hat, Q u_hat] for the elastic operator."""
    if isinstance(gen, ScaledLaplacian):
        return [fftn(grid, _check_field(grid, u))]
    return list(_hodge_split(grid, fftn(grid, _check_vector(grid, u))))


def _symbols(grid: Grid, gen: Generator, f) -> list:
    """f(c|xi|^2) on the half spectrum for each diffusivity c of gen, in part order."""
    xi2 = grid.rfreq_sq
    if isinstance(gen, ScaledLaplacian):
        return [f(gen.c * xi2)]
    return [f(gen.mu * xi2), f(gen.nu * xi2)]


def _apply_symbols(grid: Grid, parts: list, symbols: list) -> np.ndarray:
    """The isotropic symbol a(|xi|) P + b(|xi|) Q (a(|xi|) on scalars) applied to
    spectral parts: the one spectral-symbol path of the package."""
    out_hat = symbols[0] * parts[0]
    for sym, part in zip(symbols[1:], parts[1:]):
        out_hat += sym * part
    return ifftn(grid, out_hat)


def lame_apply(grid: Grid, u: np.ndarray, params: LameParams) -> np.ndarray:
    """Spectral application of mu*Lap + (lam+mu)*grad(div) to a vector field."""
    return _apply_symbols(grid, _spectral_parts(grid, u, params), _symbols(grid, params, np.negative))


def apply_generator(grid: Grid, u: np.ndarray, gen: Generator) -> np.ndarray:
    """Apply a constant-coefficient generator (c*Lap or the elastic operator)."""
    return _apply_symbols(grid, _spectral_parts(grid, u, gen), _symbols(grid, gen, np.negative))


def const_semigroup(grid: Grid, u: np.ndarray, t: float, gen: Generator) -> np.ndarray:
    """Heat flow of the generator at time t >= 0 (exact per-frequency decay)."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    return _weighted_from_parts(grid, _spectral_parts(grid, u, gen), gen, t, 0)


def semigroup_weighted(grid: Grid, u: np.ndarray, t: float, gen: Generator, k: int) -> np.ndarray:
    """(t*G)^k e^{t*G} u for the heat flow of G; k = 0 reduces to the semigroup."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    return _weighted_from_parts(grid, _spectral_parts(grid, u, gen), gen, t, k)


def _weighted_from_parts(grid: Grid, parts: list, gen: Generator, t: float, k: int) -> np.ndarray:
    """(t*G)^k e^{t*G} u from the spectral parts of u (see _spectral_parts)."""
    return _apply_symbols(grid, parts, _symbols(grid, gen, lambda z: (-t * z) ** k * np.exp(-t * z)))
