import weakref

import numpy as np
import pytest
import scipy.fft

from lamelab import varcoef
from lamelab.besov import default_partition
from lamelab.grid import Grid, fftn, ifftn
from lamelab.operators import LameParams


@pytest.fixture(scope="session")
def grid32():
    return Grid(2, 32, 16.0)


@pytest.fixture(scope="session")
def grid64():
    return Grid(2, 64, 16.0)


@pytest.fixture(scope="session")
def params():
    return LameParams(1.0, 1.0)


# Closed-form test fields.


def gaussian_bump(grid, sigma, center=None, amplitude=1.0):
    """Periodized Gaussian exp(-|x-c|^2 / (2 sigma^2)) via minimum-image distance."""
    if center is None:
        center = (0.0,) * grid.dim
    delta = grid.coords - np.asarray(center).reshape((grid.dim,) + (1,) * grid.dim)
    d2 = np.sum(grid.min_image(delta) ** 2, axis=0)
    return amplitude * np.exp(-0.5 * d2 / sigma**2)


def plane_wave(grid, kvec, amplitude=1.0, phase=0.0):
    """cos(2 pi k.x / L + phase) for an integer mode vector k."""
    kvec = np.asarray(kvec, dtype=float)
    arg = 2.0 * np.pi / grid.extent * np.einsum("a,a...->...", kvec, grid.coords)
    return amplitude * np.cos(arg + phase)


def rng_field(grid, seed, ncomp=None):
    """White-noise nodal field (for transform round-trip properties)."""
    rng = np.random.default_rng(seed)
    shape = grid.shape if ncomp is None else (ncomp,) + grid.shape
    return rng.standard_normal(shape)


# Projection through the package's own dyadic masks of the Besov norms.


def dyadic_block(grid, u, j):
    """Frequency-localize u to dyadic level j (the zero mode is always dropped)."""
    part = default_partition(grid)
    return ifftn(grid, part.masks[j - part.j_min] * fftn(grid, u))


# Full complex-spectrum references (numpy.fft.fftfreq order, Nyquist entry -pi/h):
# the package runs on the real-FFT half spectrum, tests compare it against these.


def full_fftn(grid, u):
    """Complex forward DFT over the spatial axes, onto the full spectrum ``grid.shape``."""
    return scipy.fft.fftn(u, axes=grid.spatial_axes)


def full_ifftn(grid, u_hat):
    """Complex inverse DFT over the spatial axes, real part."""
    return scipy.fft.ifftn(u_hat, axes=grid.spatial_axes).real


def full_freq(grid):
    """Angular frequencies xi = 2*pi*k/L per axis on the full spectrum, shape (dim, *shape)."""
    xi1 = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.spacing)
    return np.stack(np.meshgrid(*([xi1] * grid.dim), indexing="ij"))


def full_freq_sq(grid):
    """|xi|^2 on the full spectrum, shape ``grid.shape``."""
    return np.sum(full_freq(grid) ** 2, axis=0)


def full_hodge_symbols(grid):
    """Per-frequency projector matrices (P_hat, Q_hat) on the full spectrum, each (dim, dim, *shape).

    Q_hat(xi) = xi xi^T / |xi|^2 with Q_hat(0) = 0; P_hat = I - Q_hat.
    """
    xi = full_freq(grid)
    xi2 = full_freq_sq(grid)
    xi2[xi2 == 0.0] = np.inf
    q = np.einsum("a...,b...->ab...", xi, xi) / xi2
    eye = np.zeros_like(q)
    for a in range(grid.dim):
        eye[a, a] = 1.0
    return eye - q, q


def hodge_project(grid, u, which):
    """Apply the divergence-free ('P') or gradient ('Q') projector of full_hodge_symbols to a vector field."""
    if which not in ("P", "Q"):
        raise ValueError(f"which must be 'P' or 'Q', got {which!r}")
    sym = full_hodge_symbols(grid)[0 if which == "P" else 1]
    return full_ifftn(grid, np.einsum("ab...,b...->a...", sym, full_fftn(grid, u)))


# Second-order finite-difference Lame operator: the O(h^2) reference that the
# spectral lame_apply is compared against.


def stencil_laplacian(grid, u):
    out = -2.0 * grid.dim * u
    for a in grid.spatial_axes:
        out += np.roll(u, 1, axis=a) + np.roll(u, -1, axis=a)
    return out / grid.spacing**2


def stencil_derivative(grid, u, axis):
    sp = grid.spatial_axes[axis]
    return (np.roll(u, -1, axis=sp) - np.roll(u, 1, axis=sp)) / (2.0 * grid.spacing)


def stencil_lame(grid, u, params):
    """Centred-difference mu*Lap + (lam+mu)*grad(div) on a vector field."""
    div = sum(stencil_derivative(grid, u[a], a) for a in range(grid.dim))
    grad_div = np.stack([stencil_derivative(grid, div, a) for a in range(grid.dim)])
    return params.mu * stencil_laplacian(grid, u) + (params.lam + params.mu) * grad_div


# Instrumentation.


def record_builds(monkeypatch, module) -> list:
    """Replace module's _preconditioner by one that records, per build, its a
    and a weak reference to its psolve."""
    builds, build = [], varcoef._preconditioner

    def recorded(grid, params, a):
        out = build(grid, params, a)
        builds.append((a, weakref.ref(out[1])))
        return out

    monkeypatch.setattr(module, "_preconditioner", recorded)
    return builds
