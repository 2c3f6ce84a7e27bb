import numpy as np
import pytest

from lamelab.grid import (
    Grid,
    divergence,
    fftn,
    ifftn,
    integral,
    jacobian,
    lp_norm,
    mean_free,
)
from lamelab.fields import random_band_field
from lamelab.io import read_field, write_field

from conftest import full_fftn, full_freq_sq, full_ifftn, gaussian_bump, plane_wave, rng_field


class TestGridConstruction:
    def test_spacing_2d(self):
        assert Grid(2, 64, 16.0).spacing == pytest.approx(0.25)

    def test_spacing_3d(self):
        assert Grid(3, 16, 8.0).spacing == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "dim,n,extent",
        [(2, 12, 8.0), (2, 4, 8.0), (1, 16, 8.0), (4, 16, 8.0), (2, 16, 0.0), (2, 16, -2.0)],
    )
    def test_rejects_bad_parameters(self, dim, n, extent):
        with pytest.raises(ValueError):
            Grid(dim, n, extent)


def _roundtrip(grid, u):
    return ifftn(grid, fftn(grid, u))


class TestRoundtrip:
    def test_constant(self, grid32):
        u = np.ones(grid32.shape)
        assert np.max(np.abs(_roundtrip(grid32, u) - 1.0)) < 1e-12

    def test_single_mode(self, grid32):
        u = plane_wave(grid32, (1, 0))
        assert np.max(np.abs(_roundtrip(grid32, u) - u)) < 1e-12

    def test_random_fields_exact(self):
        grid = Grid(2, 16, 4.0)
        for seed in range(100):
            u = rng_field(grid, seed)
            defect = np.max(np.abs(_roundtrip(grid, u) - u))
            assert defect < 1e-12, f"seed {seed}: roundtrip defect {defect}"


class TestSpectralDerivative:
    def test_single_mode_identity(self, grid64):
        L = grid64.extent
        u = np.sin(2 * np.pi * grid64.coords[0] / L)
        exact = (2 * np.pi / L) * np.cos(2 * np.pi * grid64.coords[0] / L)
        assert np.max(np.abs(jacobian(grid64, u)[0] - exact)) < 1e-12

    def test_constant_derivative_zero(self, grid64):
        u = 3.5 * np.ones(grid64.shape)
        assert np.max(np.abs(jacobian(grid64, u))) < 1e-12

    def test_against_finite_differences(self):
        # centered-difference oracle on the same continuum function at h and h/2
        errs = []
        for n in (32, 64):
            grid = Grid(2, n, 16.0)
            u = random_band_field(grid, 1, 4, seed=11)
            du = jacobian(grid, u)[0]
            fd = (np.roll(u, -1, axis=0) - np.roll(u, 1, axis=0)) / (2 * grid.spacing)
            errs.append(np.max(np.abs(du - fd)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)

    def test_second_order(self, grid64):
        L = grid64.extent
        u = plane_wave(grid64, (2, 1))
        d2 = jacobian(grid64, jacobian(grid64, u))[0, 0]
        assert np.max(np.abs(d2 + (2 * np.pi * 2 / L) ** 2 * u)) < 1e-10

    def test_translation_commutes(self, grid32):
        u = random_band_field(grid32, 1, 5, seed=3)
        shift, axes = (3, 5), grid32.spatial_axes
        shifted_then_d = jacobian(grid32, np.roll(u, shift, axis=axes))
        d_then_shifted = np.roll(jacobian(grid32, u), shift, axis=axes)
        assert np.max(np.abs(shifted_then_d - d_then_shifted)) < 1e-12


class TestLpNorm:
    def test_constant(self, grid32):
        vol = grid32.extent**grid32.dim
        c = -2.5
        u = c * np.ones(grid32.shape)
        for p in (1.0, 2.0, 3.0):
            assert lp_norm(grid32, u, p) == pytest.approx(abs(c) * vol ** (1 / p), rel=1e-12)
        assert lp_norm(grid32, u, np.inf) == pytest.approx(abs(c))

    def test_zero(self, grid32):
        assert lp_norm(grid32, np.zeros(grid32.shape), 2.0) == 0.0

    def test_gaussian_bump_closed_form(self, grid64):
        # ||A exp(-d^2/(2 s^2))||_2 = A (pi s^2)^(n/4); tails < 1e-12 at L/2
        sigma, amp = 1.0, 1.3
        u = gaussian_bump(grid64, sigma, amplitude=amp)
        exact = amp * (np.pi * sigma**2) ** (grid64.dim / 4.0)
        assert lp_norm(grid64, u, 2.0) == pytest.approx(exact, rel=1e-6)

    def test_rejects_p_below_one(self, grid32):
        with pytest.raises(ValueError):
            lp_norm(grid32, np.ones(grid32.shape), 0.5)

    def test_monotone_and_triangle(self, grid32):
        for seed in range(20):
            u = rng_field(grid32, seed)
            v = rng_field(grid32, 1000 + seed)
            for p in (1.0, 2.0, np.inf):
                assert lp_norm(grid32, u, p) <= lp_norm(grid32, np.abs(u) + np.abs(v), p) + 1e-12
                assert lp_norm(grid32, u + v, p) <= (
                    lp_norm(grid32, u, p) + lp_norm(grid32, v, p) + 1e-12
                )

    def test_vector_field_magnitude(self, grid32):
        u = np.zeros((2,) + grid32.shape)
        u[0] = 3.0
        u[1] = 4.0
        assert lp_norm(grid32, u, np.inf) == pytest.approx(5.0)


class TestCalculusHelpers:
    def test_divergence_of_gradient_is_laplacian(self, grid32):
        phi = random_band_field(grid32, 1, 4, seed=5)
        lap = divergence(grid32, jacobian(grid32, phi))
        d2 = full_ifftn(grid32, -full_freq_sq(grid32) * full_fftn(grid32, phi))
        assert np.max(np.abs(lap - d2)) < 1e-10

    def test_jacobian_shape_and_content(self, grid32):
        v = random_band_field(grid32, 1, 4, seed=6, ncomp=2)
        jac = jacobian(grid32, v)
        assert jac.shape == (2, 2) + grid32.shape
        assert np.max(np.abs(jac[1, 0] - jacobian(grid32, v[1])[0])) < 1e-12

    @pytest.mark.parametrize("grid", [Grid(2, 16, 4.0), Grid(3, 8, 4.0)], ids=["2d", "3d"])
    @pytest.mark.parametrize("lead", ["scalar", "vector", "matrix", "vector stack"])
    def test_stacked_jacobian_is_per_field(self, grid, lead):
        # one call on a stack equals the one-axis derivative of each field, bit for bit
        d = grid.dim
        lead = {"scalar": (), "vector": (d,), "matrix": (d, d), "vector stack": (5, d)}[lead]
        u = np.random.default_rng(0).standard_normal(lead + grid.shape)
        out = jacobian(grid, u)
        assert out.shape == lead + (d,) + grid.shape
        for idx in np.ndindex(lead):
            for a in range(d):
                assert np.array_equal(out[idx][a], ifftn(grid, grid.rderiv[a] * fftn(grid, u[idx])))

    @pytest.mark.parametrize("grid", [Grid(2, 16, 4.0), Grid(3, 8, 4.0)], ids=["2d", "3d"])
    @pytest.mark.parametrize("lead", ["vector", "matrix", "vector stack"])
    def test_stacked_divergence_is_per_field(self, grid, lead):
        # contracts the axis before the spatial ones: each row of a matrix, each field of a stack
        d = grid.dim
        lead = {"vector": (), "matrix": (d,), "vector stack": (5,)}[lead]
        v = np.random.default_rng(1).standard_normal(lead + (d,) + grid.shape)
        out = divergence(grid, v)
        assert out.shape == lead + grid.shape
        for idx in np.ndindex(lead):
            per_axis = [ifftn(grid, grid.rderiv[a] * fftn(grid, v[idx][a])) for a in range(d)]
            assert np.allclose(out[idx], sum(per_axis), rtol=0.0, atol=1e-12)
            assert np.array_equal(out[idx], divergence(grid, v[idx]))

    def test_mean_free(self, grid32):
        u = rng_field(grid32, 0) + 4.0
        assert abs(np.mean(mean_free(grid32, u))) < 1e-13

    def test_integral_constant(self, grid32):
        assert integral(grid32, np.ones(grid32.shape)) == pytest.approx(grid32.extent**2)


class TestFieldDump:
    def test_byte_layout_is_normative(self, tmp_path):
        grid = Grid(2, 8, 2.0)
        u = np.arange(2 * 64, dtype=float).reshape((2, 8, 8))
        path = tmp_path / "f.plf1"
        write_field(path, grid, u)
        raw = path.read_bytes()
        assert raw[:4] == b"PLF1"
        header = np.frombuffer(raw[4:16], dtype="<u4")
        assert list(header) == [2, 8, 2]
        assert np.frombuffer(raw[16:24], dtype="<f8")[0] == 2.0
        samples = np.frombuffer(raw[24:], dtype="<f8")
        # component-major, each component row-major
        assert samples[0] == u[0, 0, 0]
        assert samples[8] == u[0, 1, 0]
        assert samples[64] == u[1, 0, 0]

    def test_roundtrip(self, tmp_path, grid32):
        u = random_band_field(grid32, 1, 4, seed=8, ncomp=2)
        write_field(tmp_path / "v.plf1", grid32, u)
        grid_back, data = read_field(tmp_path / "v.plf1")
        assert grid_back == grid32
        assert np.array_equal(data, u)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.plf1"
        path.write_bytes(b"NOPE" + b"\0" * 20)
        with pytest.raises(ValueError):
            read_field(path)
