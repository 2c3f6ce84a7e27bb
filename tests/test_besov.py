import numpy as np
import pytest
import scipy.special

from lamelab.besov import (
    BesovIndex,
    BoundaryLeakageWarning,
    DyadicPartition,
    _smooth_cutoff,
    besov_level_norms,
    besov_norm,
    besov_norm_report,
    besov_weighting,
    default_partition,
    dyadic_block,
    extended_time_nodes,
    heat_char_norm,
    heat_char_norm_report,
    heat_char_weighting,
    heat_profile,
    heat_time_nodes,
    multiplier_ratio,
    product_law_ratio,
)
from lamelab.fields import gaussian_bump, plane_wave, random_band_field
from lamelab.grid import Grid, fftn, lp_norm, mean_free
from lamelab.operators import LameParams, ScaledLaplacian, _spectral_parts, _weighted_from_parts

from conftest import full_fftn, full_freq_sq, full_ifftn, rng_field


@pytest.fixture(scope="module")
def gridpi():
    # L = 2 pi makes integer modes k sit at |xi| = |k|, handy for block tests
    return Grid(2, 64, 2 * np.pi)


class TestIndex:
    def test_rejects_large_s(self):
        with pytest.raises(ValueError):
            BesovIndex(2.0, 2.0, 1.0)

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            BesovIndex(0.5, 0.5, 1.0)


class TestPartition:
    def test_partition_of_unity(self, grid32, gridpi):
        for grid in (grid32, gridpi):
            part = DyadicPartition.for_grid(grid)
            total = sum(part.masks)
            nz = grid.rfreq_sq > 0
            assert np.max(np.abs(total[nz] - 1.0)) < 1e-12
            assert np.max(np.abs(total[~nz])) == 0.0

    def test_support_annuli(self, gridpi):
        part = DyadicPartition.for_grid(gridpi)
        r = np.sqrt(gridpi.rfreq_sq)
        for j in part.levels:
            chi = part.mask(j)
            outside = (r < 2.0 ** (j - 1) - 1e-9) | (r > 2.0 ** (j + 1) + 1e-9)
            assert np.max(np.abs(chi[outside])) == 0.0

    def test_rejects_out_of_range_level(self, gridpi):
        part = DyadicPartition.for_grid(gridpi)
        with pytest.raises(ValueError):
            part.mask(part.j_max + 1)


class TestDyadicBlock:
    def test_mode_in_core_annulus_passes(self, gridpi):
        u = plane_wave(gridpi, (4, 0))  # |xi| = 4 = 2^2 sits where chi_2 = 1
        assert np.max(np.abs(dyadic_block(gridpi, u, 2) - u)) < 1e-12
        assert np.max(np.abs(dyadic_block(gridpi, u, 1))) < 1e-12
        assert np.max(np.abs(dyadic_block(gridpi, u, 3))) < 1e-12

    def test_constant_annihilated(self, gridpi):
        u = np.full(gridpi.shape, 2.0)
        part = default_partition(gridpi)
        for j in part.levels:
            assert np.max(np.abs(dyadic_block(gridpi, u, j))) < 1e-13

    def test_blocks_reconstruct(self, gridpi):
        u = mean_free(gridpi, random_band_field(gridpi, 1, 8, seed=1))
        part = default_partition(gridpi)
        total = sum(dyadic_block(gridpi, u, j) for j in part.levels)
        assert np.max(np.abs(total - u)) < 1e-12


class TestBesovNorm:
    def test_zero_field(self, gridpi):
        assert besov_norm(gridpi, np.zeros(gridpi.shape), BesovIndex(0.5, 2.0, 1.0)) == 0.0

    def test_homogeneity(self, gridpi):
        u = random_band_field(gridpi, 1, 6, seed=2)
        idx = BesovIndex(0.5, 2.0, 1.0)
        a = besov_norm(gridpi, 3.7 * u, idx)
        b = 3.7 * besov_norm(gridpi, u, idx)
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("s", [-0.5, 0.0, 1.0])
    def test_single_annulus_bump(self, gridpi, s):
        # spectrum at |xi| = 2^j: norm = 2^{js} ||u||_p within the overlap factor
        j, p = 2, 2.0
        u = plane_wave(gridpi, (4, 0))
        val = besov_norm(gridpi, u, BesovIndex(s, p, 1.0))
        ref = 2.0 ** (j * s) * lp_norm(gridpi, u, p)
        assert 0.5 * ref <= val <= 2.0 * ref

    def test_plancherel_comparison(self, gridpi):
        # s = 0, p = r = 2: within [1/K, K] of the L2 norm with K <= 2
        for seed in range(5):
            u = mean_free(gridpi, random_band_field(gridpi, 1, 8, seed=seed))
            val = besov_norm(gridpi, u, BesovIndex(0.0, 2.0, 2.0))
            l2 = lp_norm(gridpi, u, 2.0)
            assert l2 / 2.0 <= val <= 2.0 * l2

    def test_block_contraction(self, gridpi):
        u = random_band_field(gridpi, 1, 8, seed=4)
        idx = BesovIndex(0.5, 2.0, 1.0)
        part = default_partition(gridpi)
        total = besov_norm_report(gridpi, u, idx, part).value
        for j in part.levels:
            blocked = besov_norm_report(gridpi, dyadic_block(gridpi, u, j), idx, part).value
            assert blocked <= total * (1 + 1e-10)

    def test_p2_fast_path_matches_physical(self, gridpi):
        # Plancherel shortcut must agree with the Riemann-sum route
        u = random_band_field(gridpi, 1, 6, seed=5)
        part = default_partition(gridpi)
        fast = besov_norm_report(gridpi, u, BesovIndex(0.3, 2.0, 1.0), part)
        slow_levels = [
            2.0 ** (j * 0.3) * lp_norm(gridpi, dyadic_block(gridpi, u, j), 2.0)
            for j in part.levels
        ]
        assert fast.value == pytest.approx(sum(slow_levels), rel=1e-12)

    def test_leakage_warning_fires(self, gridpi):
        # the lowest resolvable mode sits entirely in the first block
        u = plane_wave(gridpi, (1, 0))
        with pytest.warns(BoundaryLeakageWarning):
            besov_norm(gridpi, u, BesovIndex(0.5, 2.0, 1.0))


def _full_masks(grid, part):
    """The partition's masks on the full complex spectrum, built the same way."""
    xi2 = full_freq_sq(grid)
    r = np.sqrt(xi2)
    masks = []
    for j in part.levels:
        chi = _smooth_cutoff(r / 2.0**j) - _smooth_cutoff(r / 2.0 ** (j - 1))
        chi[xi2 == 0.0] = 0.0
        masks.append(chi)
    return masks


def _rel_norm(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


class TestComplexPathAgreement:
    """Half-spectrum blocks reproduce the complex-FFT blocks on white noise, whose
    k = 0 and k = n/2 columns of the last axis carry as much power as any other
    (a wrong Plancherel multiplicity there shows at the top levels)."""

    @pytest.fixture(params=[(2, 32), (3, 16)], ids=["2d", "3d"])
    def grid(self, request):
        dim, n = request.param
        return Grid(dim, n, 8.0)

    @pytest.fixture(params=["scalar", "vector"])
    def field(self, request, grid):
        return rng_field(grid, 40 + grid.dim, ncomp=None if request.param == "scalar" else grid.dim)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_level_norms(self, grid, field, p):
        part = default_partition(grid)
        u_hat = full_fftn(grid, field)
        comp_axes = tuple(range(field.ndim - grid.dim))
        vol = grid.cell_volume / grid.size
        ref = []
        for chi in _full_masks(grid, part):
            if p == 2.0:
                ref.append(np.sqrt(vol * np.sum(chi**2 * np.sum(np.abs(u_hat) ** 2, axis=comp_axes))))
            else:
                ref.append(lp_norm(grid, full_ifftn(grid, chi * u_hat), p))
        assert _rel_norm(besov_level_norms(grid, field, p, part), np.array(ref)) <= 1e-13

    def test_dyadic_block(self, grid, field):
        part = default_partition(grid)
        u_hat = full_fftn(grid, field)
        ref = np.stack([full_ifftn(grid, chi * u_hat) for chi in _full_masks(grid, part)])
        got = np.stack([dyadic_block(grid, field, j, part) for j in part.levels])
        assert _rel_norm(got, ref) <= 1e-13


class TestHeatCharacterization:
    def test_zero_field(self, grid64, params):
        v = np.zeros((2,) + grid64.shape)
        assert heat_char_norm(grid64, v, 0.5, 2.0, 1.0, 1, params) == 0.0

    def test_rejects_bad_k(self, grid64, params):
        v = np.zeros((2,) + grid64.shape)
        with pytest.raises(ValueError):
            heat_char_norm(grid64, v, 0.5, 2.0, 1.0, 0, params)

    @pytest.mark.parametrize("q", [0.0, -1.0])
    def test_rejects_bad_q(self, grid64, params, q):
        v = np.zeros((2,) + grid64.shape)
        with pytest.raises(ValueError):
            heat_char_norm_report(grid64, v, 0.5, 2.0, q, 1, params)

    def test_gaussian_bump_against_per_mode_integral(self, grid64):
        # p = q = 2, k = 1: Plancherel turns the quadrature into per-mode
        # integrals int t^{1-s} |xi|^4 e^{-2t|xi|^2} dt/t = G(2-s) (2|xi|^2)^(s-2) |xi|^4
        # s = 1 leaves only first-order decay of the profile at small t, so the
        # node range starts far below the grid scale to kill truncation
        s, k = 1.0, 1
        u = gaussian_bump(grid64, 1.0)
        u = mean_free(grid64, u)
        nodes = 1e-7 * 2.0 ** (0.5 * np.arange(70))  # covers [1e-7, 3e3]
        val = heat_char_norm(grid64, u, s, 2.0, 2.0, k, ScaledLaplacian(1.0), t_nodes=nodes)
        u_hat = full_fftn(grid64, u)
        c = grid64.cell_volume / grid64.size * np.abs(u_hat) ** 2
        xi2 = full_freq_sq(grid64)
        xi2[xi2 == 0.0] = np.inf
        weights = xi2**2 * scipy.special.gamma(2 - s) * (2 * xi2) ** (s - 2.0)
        weights[~np.isfinite(weights)] = 0.0
        exact = float(np.sqrt(np.sum(c * weights)))
        assert val == pytest.approx(exact, rel=1e-4)

    @pytest.mark.parametrize("s", [0.5, -0.5, 0.0])
    @pytest.mark.parametrize("gen_name", ["laplacian", "lame"])
    def test_equivalence_with_lp_norm(self, grid64, params, s, gen_name):
        gen = ScaledLaplacian(1.0) if gen_name == "laplacian" else params
        u = random_band_field(grid64, 2, 6, seed=7, ncomp=2)
        hv = heat_char_norm(grid64, u, s, 2.0, 1.0, 1, gen)
        bv = besov_norm(grid64, u, BesovIndex(s, 2.0, 1.0))
        ratio = hv / bv
        assert 0.2 <= ratio <= 5.0


class TestMultiplier:
    def test_constant_multiplier(self, grid32):
        rho = np.full(grid32.shape, 1.7)
        fields = [random_band_field(grid32, 1, 4, seed=s) for s in range(3)]
        r = multiplier_ratio(grid32, rho, BesovIndex(0.0, 2.0, 1.0), fields)
        assert r == pytest.approx(1.7, rel=1e-10)

    def test_identity_multiplier(self, grid32):
        fields = [random_band_field(grid32, 1, 4, seed=5)]
        r = multiplier_ratio(grid32, np.ones(grid32.shape), BesovIndex(0.0, 2.0, 1.0), fields)
        assert r == pytest.approx(1.0, rel=1e-12)

    def test_rejects_empty_test_set(self, grid32):
        with pytest.raises(ValueError):
            multiplier_ratio(grid32, np.ones(grid32.shape), BesovIndex(0.0, 2.0, 1.0), [])

    def test_smooth_multiplier_stable_under_refinement(self):
        # the same continuum rho and probes, two resolutions: within 20%
        vals = []
        for n in (32, 64):
            grid = Grid(2, n, 16.0)
            rho = 1.25 + 0.75 * np.sin(2 * np.pi * grid.coords[0] / grid.extent) * np.cos(
                2 * np.pi * grid.coords[1] / grid.extent
            )
            fields = [random_band_field(grid, 1, 4, seed=s, ncomp=2) for s in range(6)]
            vals.append(multiplier_ratio(grid, rho, BesovIndex(0.0, 2.0, 1.0), fields))
        assert abs(vals[1] - vals[0]) / vals[0] < 0.2


class TestProductLaw:
    def test_single_bump_finite(self, grid64):
        u = mean_free(grid64, gaussian_bump(grid64, 1.0))
        r = product_law_ratio(grid64, u, u, 2.0)
        assert 0 < r < 10

    def test_scaling_invariance(self, grid64):
        u = random_band_field(grid64, 1, 4, seed=8)
        v = random_band_field(grid64, 1, 4, seed=9)
        a = product_law_ratio(grid64, u, v, 2.0)
        b = product_law_ratio(grid64, u, 5.0 * v, 2.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_rejects_zero_factor(self, grid64):
        u = random_band_field(grid64, 1, 4, seed=8)
        with pytest.raises(ValueError):
            product_law_ratio(grid64, u, np.zeros(grid64.shape), 2.0)

    def test_bounded_and_stable_under_refinement(self):
        # 50 pairs of the same continuum fields on N and 2N
        maxima = []
        for n in (32, 64):
            grid = Grid(2, n, 16.0)
            worst = 0.0
            for s in range(50):
                u = random_band_field(grid, 1, 4, seed=100 + s)
                v = random_band_field(grid, 1, 4, seed=600 + s)
                worst = max(worst, product_law_ratio(grid, u, v, 2.0))
            maxima.append(worst)
        assert maxima[1] == pytest.approx(maxima[0], rel=0.2)

    def test_mixed_variant_finite(self, grid64):
        u = random_band_field(grid64, 1, 4, seed=10)
        v = random_band_field(grid64, 1, 4, seed=11)
        assert 0 < product_law_ratio(grid64, u, v, 2.0, mixed=True) < 10


class TestProfiles:
    """A report is the s-weighting of an s-free profile, with the same scalar
    operations in the same order as a direct evaluation at that s."""

    S_VALUES = (-0.5, 0.0, 0.5, 1.0)
    GRID = Grid(2, 32, 10.0)  # h^2 / N^2 is no power of four, so regrouped factors round differently

    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("r", [1.0, np.inf])
    def test_besov_report_is_weighted_level_norms(self, p, r):
        grid = self.GRID
        u = random_band_field(grid, 1, 6, seed=3, ncomp=2)
        part = default_partition(grid)
        levels = besov_level_norms(grid, u, p, part)
        u_hat = fftn(grid, u)
        power = np.sum(np.abs(u_hat) ** 2, axis=0) * grid.rmultiplicity
        vol = grid.cell_volume / grid.size
        for s in self.S_VALUES:
            idx = BesovIndex(s, p, r)
            rep = besov_norm_report(grid, u, idx, part)
            assert rep == besov_weighting(part, levels, idx)
            # direct evaluation at this s
            if p == 2.0:
                block = [np.sqrt(vol * np.sum(part.mask(j) ** 2 * power)) for j in part.levels]
            else:
                block = [lp_norm(grid, dyadic_block(grid, u, j, part), p) for j in part.levels]
            per = np.array([2.0 ** (j * s) * b for j, b in zip(part.levels, block)])
            value = float(np.max(per)) if np.isinf(r) else float(np.sum(per**r) ** (1.0 / r))
            assert rep.per_level == tuple(per)
            assert rep.value == value
            assert rep.leakage == float((per[0] + per[-1]) / np.sum(per))

    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("q", [1.0, np.inf])
    @pytest.mark.parametrize("gen_name", ["laplacian", "lame"])
    def test_heat_report_is_weighted_profile(self, params, p, q, gen_name):
        grid = self.GRID
        gen = ScaledLaplacian(1.0) if gen_name == "laplacian" else params
        u = random_band_field(grid, 1, 6, seed=4, ncomp=2)
        nodes, profile = heat_profile(grid, u, p, 1, gen)
        assert np.array_equal(nodes, extended_time_nodes(grid, gen))
        parts = _spectral_parts(grid, mean_free(grid, u), gen)
        for s in self.S_VALUES:
            rep = heat_char_norm_report(grid, u, s, p, q, 1, gen)
            assert rep == heat_char_weighting(nodes, profile, s, q)
            # direct evaluation at this s
            g = np.array(
                [t ** (-s / 2.0) * lp_norm(grid, _weighted_from_parts(grid, parts, gen, t, 1), p) for t in nodes]
            )
            value = float(np.max(g)) if np.isinf(q) else float((0.5 * np.log(2.0) * np.sum(g**q)) ** (1.0 / q))
            assert rep.per_level == tuple(g)
            assert rep.value == value
            assert rep.leakage == float((g[0] + g[-1]) / np.sum(g))

    def test_profile_rejects_negative_k(self, params):
        with pytest.raises(ValueError):
            heat_profile(self.GRID, np.zeros(self.GRID.shape), 2.0, -1, params)


def test_heat_time_nodes_cover_resolvable_scales(grid32, params):
    nodes = heat_time_nodes(grid32, params)
    c = min(params.mu, params.nu)
    assert nodes[0] == pytest.approx(grid32.spacing**2 / c)
    assert nodes[-1] >= grid32.extent**2 / c
