import warnings

import numpy as np
import pytest
import scipy.fft

from lamelab.besov import BoundaryLeakageWarning
from lamelab.grid import Grid
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


@pytest.fixture
def quiet_leakage():
    """Silence the resolution warning where a test intentionally runs coarse."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryLeakageWarning)
        yield


def rng_field(grid, seed, ncomp=None):
    """White-noise nodal field (for transform round-trip properties)."""
    rng = np.random.default_rng(seed)
    shape = grid.shape if ncomp is None else (ncomp,) + grid.shape
    return rng.standard_normal(shape)


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
