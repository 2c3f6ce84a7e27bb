import numpy as np
import pytest
import scipy.special

from lamelab.besov import (
    BesovIndex,
    DyadicPartition,
    _smooth_cutoff,
    besov_level_norms,
    besov_norm_report,
    besov_weighting,
    default_partition,
    extended_time_nodes,
    heat_char_weighting,
    heat_profile,
    heat_time_nodes,
)
from lamelab.fields import random_band_field
from lamelab.grid import Grid, fftn, lp_norm, mean_free
from lamelab.operators import ScaledLaplacian, _apply, _heat, _spectral
from lamelab.scenarios import ConfigError, parse_besov

from conftest import dyadic_block, full_fftn, full_freq_sq, full_ifftn, gaussian_bump, plane_wave, rng_field


@pytest.fixture(scope="module")
def gridpi():
    # L = 2 pi makes integer modes k sit at |xi| = |k|, handy for block tests
    return Grid(2, 64, 2 * np.pi)


class TestIndex:
    def test_rejects_large_s(self):
        with pytest.raises(ValueError):
            BesovIndex(2.0, 2.0)

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            BesovIndex(0.5, 0.5)


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
        for j, chi in zip(part.levels, part.masks):
            outside = (r < 2.0 ** (j - 1) - 1e-9) | (r > 2.0 ** (j + 1) + 1e-9)
            assert np.max(np.abs(chi[outside])) == 0.0


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
        assert besov_norm_report(gridpi, np.zeros(gridpi.shape), BesovIndex(0.5, 2.0)).value == 0.0

    def test_homogeneity(self, gridpi):
        u = random_band_field(gridpi, 1, 6, seed=2)
        idx = BesovIndex(0.5, 2.0)
        a = besov_norm_report(gridpi, 3.7 * u, idx).value
        b = 3.7 * besov_norm_report(gridpi, u, idx).value
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("s", [-0.5, 0.0, 1.0])
    def test_single_annulus_bump(self, gridpi, s):
        # spectrum at |xi| = 2^j: norm = 2^{js} ||u||_p within the overlap factor
        j, p = 2, 2.0
        u = plane_wave(gridpi, (4, 0))
        val = besov_norm_report(gridpi, u, BesovIndex(s, p)).value
        ref = 2.0 ** (j * s) * lp_norm(gridpi, u, p)
        assert 0.5 * ref <= val <= 2.0 * ref

    def test_plancherel_comparison(self, gridpi):
        # s = 0, p = 2: the l^2 sum of the level norms is within [1/K, K] of
        # the L2 norm with K <= 2
        for seed in range(5):
            u = mean_free(gridpi, random_band_field(gridpi, 1, 8, seed=seed))
            per_level = besov_norm_report(gridpi, u, BesovIndex(0.0, 2.0)).per_level
            val = float(np.sum(np.square(per_level)) ** 0.5)
            l2 = lp_norm(gridpi, u, 2.0)
            assert l2 / 2.0 <= val <= 2.0 * l2

    def test_block_contraction(self, gridpi):
        u = random_band_field(gridpi, 1, 8, seed=4)
        idx = BesovIndex(0.5, 2.0)
        part = default_partition(gridpi)
        total = besov_norm_report(gridpi, u, idx).value
        for j in part.levels:
            blocked = besov_norm_report(gridpi, dyadic_block(gridpi, u, j), idx).value
            assert blocked <= total * (1 + 1e-10)

    def test_p2_fast_path_matches_physical(self, gridpi):
        # Plancherel shortcut must agree with the Riemann-sum route
        u = random_band_field(gridpi, 1, 6, seed=5)
        part = default_partition(gridpi)
        fast = besov_norm_report(gridpi, u, BesovIndex(0.3, 2.0))
        slow_levels = [
            2.0 ** (j * 0.3) * lp_norm(gridpi, dyadic_block(gridpi, u, j), 2.0)
            for j in part.levels
        ]
        assert fast.value == pytest.approx(sum(slow_levels), rel=1e-12)

    def test_boundary_leakage_flagged(self, gridpi):
        # the lowest resolvable mode sits entirely in the first block
        u = plane_wave(gridpi, (1, 0))
        assert besov_norm_report(gridpi, u, BesovIndex(0.5, 2.0)).leakage > 0.01


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
        assert _rel_norm(besov_level_norms(grid, field[None], p)[0], np.array(ref)) <= 1e-13

    def test_dyadic_block(self, grid, field):
        part = default_partition(grid)
        u_hat = full_fftn(grid, field)
        ref = np.stack([full_ifftn(grid, chi * u_hat) for chi in _full_masks(grid, part)])
        got = np.stack([dyadic_block(grid, field, j) for j in part.levels])
        assert _rel_norm(got, ref) <= 1e-13


class TestStackedLevelNorms:
    """The level norms of a stack are the rows of its fields taken one at a time,
    bit for bit: nothing is reduced over the stack axis."""

    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("comps", ["scalar", "vector", "matrix"])
    @pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)], ids=["2d", "3d"])
    def test_rows_equal_single_fields(self, dim, n, comps, p):
        grid = Grid(dim, n, 8.0)
        comp_shape = {"scalar": (), "vector": (dim,), "matrix": (dim, dim)}[comps]
        fields = np.random.default_rng(50 + dim).standard_normal((3,) + comp_shape + grid.shape)
        part = default_partition(grid)
        got = besov_level_norms(grid, fields, p)
        ref = np.stack([besov_level_norms(grid, u[None], p)[0] for u in fields])
        assert got.shape == (3, len(part.levels))
        assert np.array_equal(got, ref)


class TestHeatCharacterization:
    def test_zero_field(self, grid64, params):
        v = np.zeros((2,) + grid64.shape)
        assert heat_char_weighting(*heat_profile(grid64, v, 2.0, 1, params), 0.5, 1.0).value == 0.0

    # the characterization needs k > s/2 and q > 0; parse_besov checks both
    CONFIG = {"grid": {"dim": 2, "N": 16, "extent": 8.0}, "lame": {"mu": 1.0, "lambda": 1.0}, "s_list": [0.5]}

    def test_rejects_bad_k(self):
        with pytest.raises(ConfigError):
            parse_besov(dict(self.CONFIG, k=0), 0)

    @pytest.mark.parametrize("q", [0.0, -1.0])
    def test_rejects_bad_q(self, q):
        with pytest.raises(ConfigError):
            parse_besov(dict(self.CONFIG, q=q), 0)

    def test_gaussian_bump_against_per_mode_integral(self, grid64):
        # p = q = 2, k = 1: Plancherel turns the quadrature into per-mode
        # integrals int t^{1-s} |xi|^4 e^{-2t|xi|^2} dt/t = G(2-s) (2|xi|^2)^(s-2) |xi|^4
        # s = 1 leaves only first-order decay of the profile at small t, so the
        # node range starts far below the grid scale to kill truncation
        s, k = 1.0, 1
        u = gaussian_bump(grid64, 1.0)
        u = mean_free(grid64, u)
        nodes = 1e-7 * 2.0 ** (0.5 * np.arange(70))  # covers [1e-7, 3e3]
        gen = ScaledLaplacian(1.0)
        spec = _spectral(grid64, u, gen)  # heat_profile's path on these nodes
        profile = [lp_norm(grid64, _apply(grid64, spec, _heat(t, k)), 2.0) for t in nodes]
        val = heat_char_weighting(nodes, profile, s, 2.0).value
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
        hv = heat_char_weighting(*heat_profile(grid64, u, 2.0, 1, gen), s, 1.0).value
        bv = besov_norm_report(grid64, u, BesovIndex(s, 2.0)).value
        ratio = hv / bv
        assert 0.2 <= ratio <= 5.0


def multiplier_ratio(grid, rho, idx, test_fields):
    """Empirical multiplier norm: sup over the test set of ||rho*u|| / ||u||.

    A lower estimate of the operator norm of pointwise multiplication by rho
    on the Besov space.
    """
    test_fields = list(test_fields)
    if not test_fields:
        raise ValueError("test set must be nonempty")
    part = default_partition(grid)
    worst = 0.0
    for u in test_fields:
        u = mean_free(grid, u)
        denom = besov_norm_report(grid, u, idx).value
        if denom == 0.0:
            raise ValueError("test field with zero Besov norm")
        num = besov_norm_report(grid, rho * u, idx).value
        worst = max(worst, num / denom)
    return worst


class TestMultiplier:
    def test_constant_multiplier(self, grid32):
        rho = np.full(grid32.shape, 1.7)
        fields = [random_band_field(grid32, 1, 4, seed=s) for s in range(3)]
        r = multiplier_ratio(grid32, rho, BesovIndex(0.0, 2.0), fields)
        assert r == pytest.approx(1.7, rel=1e-10)

    def test_identity_multiplier(self, grid32):
        fields = [random_band_field(grid32, 1, 4, seed=5)]
        r = multiplier_ratio(grid32, np.ones(grid32.shape), BesovIndex(0.0, 2.0), fields)
        assert r == pytest.approx(1.0, rel=1e-12)

    def test_rejects_empty_test_set(self, grid32):
        with pytest.raises(ValueError):
            multiplier_ratio(grid32, np.ones(grid32.shape), BesovIndex(0.0, 2.0), [])

    def test_smooth_multiplier_stable_under_refinement(self):
        # the same continuum rho and probes, two resolutions: within 20%
        vals = []
        for n in (32, 64):
            grid = Grid(2, n, 16.0)
            rho = 1.25 + 0.75 * np.sin(2 * np.pi * grid.coords[0] / grid.extent) * np.cos(
                2 * np.pi * grid.coords[1] / grid.extent
            )
            fields = [random_band_field(grid, 1, 4, seed=s, ncomp=2) for s in range(6)]
            vals.append(multiplier_ratio(grid, rho, BesovIndex(0.0, 2.0), fields))
        assert abs(vals[1] - vals[0]) / vals[0] < 0.2


def product_law_ratio(grid, u, v, p, mixed=False):
    """Observed constant in the Besov product law.

    Plain form: ||uv|| / (||u|| ||v||) at regularity n/p for all three norms.
    Mixed form pairs regularity n/p on u with n/p - 1 on v and the product.
    """
    part = default_partition(grid)
    s_high = grid.dim / p
    idx_high = BesovIndex(s_high, p)
    if mixed:
        idx_low = BesovIndex(s_high - 1.0, p)
        nu = besov_norm_report(grid, u, idx_high).value
        nv = besov_norm_report(grid, v, idx_low).value
        npr = besov_norm_report(grid, mean_free(grid, u * v), idx_low).value
    else:
        nu = besov_norm_report(grid, u, idx_high).value
        nv = besov_norm_report(grid, v, idx_high).value
        npr = besov_norm_report(grid, mean_free(grid, u * v), idx_high).value
    if nu == 0.0 or nv == 0.0:
        raise ValueError("product law ratio undefined for zero-norm factors")
    return npr / (nu * nv)


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
    def test_besov_report_is_weighted_level_norms(self, p):
        grid = self.GRID
        u = random_band_field(grid, 1, 6, seed=3, ncomp=2)
        part = default_partition(grid)
        levels = besov_level_norms(grid, u[None], p)[0]
        u_hat = fftn(grid, u)
        power = np.sum(np.abs(u_hat) ** 2, axis=0) * grid.rmultiplicity
        vol = grid.cell_volume / grid.size
        for s in self.S_VALUES:
            idx = BesovIndex(s, p)
            rep = besov_norm_report(grid, u, idx)
            assert rep == besov_weighting(part, levels, idx)
            # direct evaluation at this s
            if p == 2.0:
                block = [np.sqrt(vol * np.sum(chi**2 * power)) for chi in part.masks]
            else:
                block = [lp_norm(grid, dyadic_block(grid, u, j), p) for j in part.levels]
            per = np.array([2.0 ** (j * s) * b for j, b in zip(part.levels, block)])
            value = float(np.sum(per))
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
        spec = _spectral(grid, mean_free(grid, u), gen)
        for s in self.S_VALUES:
            rep = heat_char_weighting(nodes, profile, s, q)
            # direct evaluation at this s
            g = np.array(
                [t ** (-s / 2.0) * lp_norm(grid, _apply(grid, spec, _heat(t, 1)), p) for t in nodes]
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
