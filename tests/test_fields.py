import numpy as np
import pytest
import scipy.fft

from lamelab.fields import (
    band_modes,
    checkerboard_density,
    delta_field,
    random_band_field,
    trig_density,
)
from lamelab.fields import _mode_list
from lamelab.grid import Grid, integral

from conftest import gaussian_bump, plane_wave


def band_field_reference(grid, kmin, kmax, seed, ncomp):
    """random_band_field summed mode by mode in physical space, before its
    scaling to unit max-norm."""
    rng = np.random.default_rng(seed)
    comps = 1 if ncomp is None else ncomp
    out = np.zeros((comps,) + grid.shape)
    for k in _mode_list(grid.dim, kmin, kmax):
        arg = 2.0 * np.pi / grid.extent * np.einsum("a,a...->...", np.asarray(k, dtype=float), grid.coords)
        for c in range(comps):
            a, b = rng.normal(size=2)
            out[c] += a * np.cos(arg) + b * np.sin(arg)
    return out[0] if ncomp is None else out


def band_field_forward_norm(grid, kmin, kmax, seed, ncomp):
    """random_band_field synthesized by scipy.fft.irfftn with norm="forward"
    (no 1/size on the inverse), the bitwise reference of its grid.ifftn form."""
    rng = np.random.default_rng(seed)
    modes = np.array(band_modes(grid, kmin, kmax))
    comps = 1 if ncomp is None else ncomp
    draws = rng.normal(size=(len(modes), comps, 2))
    sign = np.where(modes.sum(axis=1) % 2, -1.0, 1.0)[:, None]
    coef = 0.5 * sign * (draws[..., 0] - 1j * draws[..., 1])
    spec = np.zeros((comps,) + grid.shape[:-1] + (grid.n // 2 + 1,), dtype=complex)
    up, down = modes[:, -1] >= 0, modes[:, -1] <= 0
    spec[(slice(None),) + tuple((modes[up] % grid.n).T)] = coef[up].T
    spec[(slice(None),) + tuple((-modes[down] % grid.n).T)] = np.conj(coef[down]).T
    out = scipy.fft.irfftn(spec, s=grid.shape, axes=grid.spatial_axes, norm="forward")
    out = out / np.max(np.abs(out))
    return out[0] if ncomp is None else out


class TestBandField:
    @pytest.mark.parametrize("ncomp", [None, 2, 3])
    @pytest.mark.parametrize("dim, n, extent, kmin, kmax", [(2, 32, 16.0, 1.0, 5.0), (3, 16, 8.0, 1.0, 3.0)])
    def test_matches_mode_sum(self, dim, n, extent, kmin, kmax, ncomp):
        grid = Grid(dim, n, extent)
        u = random_band_field(grid, kmin, kmax, seed=11, ncomp=ncomp)
        ref = band_field_reference(grid, kmin, kmax, 11, ncomp)
        ref = ref / np.max(np.abs(ref))
        assert u.shape == ref.shape
        assert np.max(np.abs(u - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("ncomp", [None, 3])
    @pytest.mark.parametrize("dim, n, kmax", [(2, 8, 3.0), (2, 32, 5.0), (2, 128, 6.0), (3, 16, 3.0), (3, 32, 4.0)])
    def test_matches_forward_norm_synthesis(self, dim, n, kmax, ncomp):
        grid = Grid(dim, n, 8.0)
        u = random_band_field(grid, 1.0, kmax, seed=12, ncomp=ncomp)
        assert np.array_equal(u, band_field_forward_norm(grid, 1.0, kmax, 12, ncomp))

    def test_continuum_stable_across_resolutions(self):
        # the same seed and band sample one function: coarse nodes are a
        # subset of fine nodes. The max-norm scaling is taken over the grid's
        # own nodes, so the fine field agrees with the coarse one on those
        # nodes once scaled to unit max-norm there.
        coarse = Grid(2, 32, 16.0)
        fine = Grid(2, 64, 16.0)
        uc = random_band_field(coarse, 1, 4, seed=9)
        uf = random_band_field(fine, 1, 4, seed=9)[::2, ::2]
        assert np.max(np.abs(uf / np.max(np.abs(uf)) - uc)) < 1e-12

    def test_mean_free(self, grid32):
        u = random_band_field(grid32, 1, 5, seed=1)
        assert abs(np.mean(u)) < 1e-12

    def test_rejects_unresolvable_band(self, grid32):
        with pytest.raises(ValueError):
            random_band_field(grid32, 1, 16, seed=0)

    def test_rejects_dc_band(self, grid32):
        with pytest.raises(ValueError):
            random_band_field(grid32, 0, 3, seed=0)

    def test_vector_components_independent(self, grid32):
        u = random_band_field(grid32, 1, 3, seed=2, ncomp=2)
        assert u.shape == (2,) + grid32.shape
        assert np.max(np.abs(u[0] - u[1])) > 1e-3


class TestDensities:
    @pytest.mark.parametrize("m", [0.5, 0.8])
    def test_bounds_attained(self, grid64, m):
        rho = checkerboard_density(grid64, m)
        assert np.min(rho) >= m - 1e-12
        assert np.max(rho) <= 1.0 / m + 1e-12
        assert np.min(rho) == pytest.approx(m, rel=1e-6)
        assert np.max(rho) == pytest.approx(1.0 / m, rel=1e-6)

    def test_trig_density_plateaus(self, grid64):
        rho = trig_density(grid64, 0.5, seed=3, gain=2.0)
        # hard clipping creates plateaus at both bounds
        assert np.mean(np.isclose(rho, 2.0, rtol=1e-9)) > 0.05
        assert np.mean(np.isclose(rho, 0.5, rtol=1e-9)) > 0.05


class TestSimpleFields:
    def test_delta_unit_integral(self, grid32):
        d = delta_field(grid32, (3, 7))
        assert integral(grid32, d) == pytest.approx(1.0)

    def test_plane_wave_values(self, grid32):
        u = plane_wave(grid32, (1, 0), amplitude=2.0)
        assert u[0, 0] == pytest.approx(2.0 * np.cos(-np.pi))

    def test_bump_center_amplitude(self, grid64):
        u = gaussian_bump(grid64, 0.5, center=(1.0, -2.0), amplitude=3.0)
        idx = tuple(int(round((c + 8.0) / grid64.spacing)) for c in (1.0, -2.0))
        assert u[idx] == pytest.approx(3.0)
