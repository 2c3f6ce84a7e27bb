import numpy as np
import pytest

from conftest import (
    full_fftn,
    full_freq,
    full_freq_sq,
    full_hodge_symbols,
    full_ifftn,
    hodge_project,
    plane_wave,
    rng_field,
    stencil_lame,
)
from lamelab.besov import heat_profile
from lamelab.grid import (
    divergence,
    integral,
    jacobian,
    lp_norm,
    mean_free,
)
from lamelab.operators import (
    LameParams,
    ScaledLaplacian,
    _apply,
    _heat,
    _spectral,
    const_semigroup,
    lame_apply,
)
from lamelab.varcoef import Coefficient, _preconditioner, dense_lame_matrix, dense_semigroup_matrices
from lamelab.fields import random_band_field
from lamelab.grid import Grid


class TestParams:
    def test_nu(self):
        assert LameParams(1.0, 1.0).nu == pytest.approx(3.0)

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(ValueError):
            LameParams(0.0, 1.0)

    def test_rejects_nonpositive_nu(self):
        with pytest.raises(ValueError):
            LameParams(1.0, -2.0)

    def test_scaled_laplacian_positive(self):
        with pytest.raises(ValueError):
            ScaledLaplacian(0.0)


def _gradient_field(grid, seed):
    phi = random_band_field(grid, 1, 4, seed=seed)
    return jacobian(grid, phi)


def _divergence_free_field(grid, seed):
    psi = random_band_field(grid, 1, 4, seed=seed)
    g = jacobian(grid, psi)
    return np.stack([-g[1], g[0]])


class TestHodge:
    def test_gradient_goes_to_q(self, grid32):
        u = _gradient_field(grid32, 1)
        assert np.max(np.abs(hodge_project(grid32, u, "Q") - u)) < 1e-11
        assert np.max(np.abs(hodge_project(grid32, u, "P"))) < 1e-11

    def test_divergence_free_goes_to_p(self, grid32):
        u = _divergence_free_field(grid32, 2)
        assert np.max(np.abs(hodge_project(grid32, u, "P") - u)) < 1e-11

    def test_projectors_sum_to_identity(self, grid32):
        u = random_band_field(grid32, 1, 6, seed=3, ncomp=2)
        pu = hodge_project(grid32, u, "P")
        qu = hodge_project(grid32, u, "Q")
        assert np.max(np.abs(pu + qu - u)) < 1e-12

    def test_mean_passes_through_p(self, grid32):
        u = np.ones((2,) + grid32.shape)
        assert np.max(np.abs(hodge_project(grid32, u, "P") - u)) < 1e-13
        assert np.max(np.abs(hodge_project(grid32, u, "Q"))) < 1e-13

    def test_symbols_idempotent(self, grid32):
        P, Q = full_hodge_symbols(grid32)
        assert np.max(np.abs(np.einsum("ab...,bc...->ac...", Q, Q) - Q)) < 1e-12
        assert np.max(np.abs(np.einsum("ab...,bc...->ac...", P, Q))) < 1e-12


class TestLameApply:
    def test_divergence_free_reduces_to_laplacian(self, grid32, params):
        u = _divergence_free_field(grid32, 4)
        lap = lame_apply(grid32, u, ScaledLaplacian(params.mu))
        assert np.max(np.abs(lame_apply(grid32, u, params) - lap)) < 1e-10

    def test_gradient_reduces_to_nu_laplacian(self, grid32, params):
        u = _gradient_field(grid32, 5)
        lap = lame_apply(grid32, u, ScaledLaplacian(params.nu))
        assert np.max(np.abs(lame_apply(grid32, u, params) - lap)) < 1e-10

    def test_against_stencil(self, params):
        # second-order finite-difference oracle: O(h^2) agreement
        errs = []
        for n in (32, 64):
            grid = Grid(2, n, 16.0)
            u = random_band_field(grid, 1, 4, seed=6, ncomp=2)
            errs.append(np.max(np.abs(lame_apply(grid, u, params) - stencil_lame(grid, u, params))))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)

    def test_coercivity_identity(self, grid32, params):
        # <-Lu, u> = mu ||grad u||^2 + (mu+lam) ||div u||^2 >= min(mu,nu) ||grad u||^2
        for seed in range(5):
            u = random_band_field(grid32, 1, 5, seed=seed, ncomp=2)
            lhs = -integral(grid32, np.einsum("a...,a...->...", lame_apply(grid32, u, params), u))
            grad_sq = lp_norm(grid32, jacobian(grid32, u), 2) ** 2
            div_sq = lp_norm(grid32, divergence(grid32, u), 2) ** 2
            rhs = params.mu * grad_sq + (params.mu + params.lam) * div_sq
            assert lhs == pytest.approx(rhs, rel=1e-10)
            assert lhs >= min(params.mu, params.nu) * grad_sq * (1 - 1e-10)

    def test_hodge_reconstruction_of_laplacian(self, grid32, params):
        # Lap u = ((1/mu) P + (1/nu) Q) L u
        u = random_band_field(grid32, 1, 5, seed=9, ncomp=2)
        lame = lame_apply(grid32, u, params)
        recon = hodge_project(grid32, lame, "P") / params.mu + hodge_project(grid32, lame, "Q") / params.nu
        lap = lame_apply(grid32, u, ScaledLaplacian(1.0))
        scale = np.max(np.abs(lap))
        assert np.max(np.abs(recon - lap)) / scale < 1e-10


class TestSemigroup:
    def test_t_zero_is_identity(self, grid32, params):
        u = random_band_field(grid32, 1, 5, seed=10, ncomp=2)
        assert np.max(np.abs(const_semigroup(grid32, u, 0.0, params) - u)) < 1e-12

    def test_rejects_negative_time(self, grid32, params):
        u = np.zeros((2,) + grid32.shape)
        with pytest.raises(ValueError):
            const_semigroup(grid32, u, -0.1, params)

    def test_divergence_free_matches_scaled_laplacian(self, grid32, params):
        u = _divergence_free_field(grid32, 11)
        a = const_semigroup(grid32, u, 0.3, params)
        b = const_semigroup(grid32, u, 0.3, ScaledLaplacian(params.mu))
        assert np.max(np.abs(a - b)) < 1e-12

    def test_longitudinal_mode_decays_at_nu_rate(self, grid64, params):
        # e || xi: pure gradient mode, amplitude scales by exp(-nu t |xi|^2)
        L = grid64.extent
        kvec = (2, 1)
        xi = 2 * np.pi * np.array(kvec) / L
        e = xi / np.linalg.norm(xi)
        u = e[:, None, None] * plane_wave(grid64, kvec)[None]
        t = 0.17
        expected = np.exp(-params.nu * t * np.dot(xi, xi)) * u
        assert np.max(np.abs(const_semigroup(grid64, u, t, params) - expected)) < 1e-12

    def test_semigroup_law(self, grid32, params):
        u = random_band_field(grid32, 1, 5, seed=12, ncomp=2)
        ab = const_semigroup(grid32, const_semigroup(grid32, u, 0.07, params), 0.21, params)
        once = const_semigroup(grid32, u, 0.28, params)
        assert np.max(np.abs(ab - once)) < 1e-12

    def test_weighted_semigroup_k0(self, grid32, params):
        # the k = 0 heat profile is the L^p norm of the semigroup at each node
        u = random_band_field(grid32, 1, 5, seed=13, ncomp=2)
        nodes, profile = heat_profile(grid32, u, 2.0, 0, params)
        ref = [lp_norm(grid32, const_semigroup(grid32, mean_free(grid32, u), t, params), 2.0) for t in nodes]
        assert np.max(np.abs(profile - ref)) < 1e-12 * max(ref)

    def test_weighted_semigroup_single_mode(self, grid64):
        # (tG)^k e^{tG} on one mode = (-c t |xi|^2)^k exp(-c t |xi|^2)
        gen = ScaledLaplacian(2.0)
        u = plane_wave(grid64, (3, 0))
        xi2 = (2 * np.pi * 3 / grid64.extent) ** 2
        t = 0.11
        z = -gen.c * t * xi2
        expected = z * np.exp(z) * u
        got = _apply(grid64, _spectral(grid64, u, gen), _heat(t, 1))
        assert np.max(np.abs(got - expected)) < 1e-12


def _complex_isotropic(grid, u, a, b):
    """Full complex-FFT reference: ifftn(a P u_hat + b Q u_hat), Q = xi xi^T / |xi|^2."""
    xi = full_freq(grid)
    xi2 = full_freq_sq(grid)
    xi2[xi2 == 0.0] = np.inf
    u_hat = full_fftn(grid, u)
    q_hat = xi * np.sum(xi * u_hat, axis=0) / xi2
    return full_ifftn(grid, a * (u_hat - q_hat) + b * q_hat)


def _complex_derivative(grid, u, axis):
    """Full complex-FFT reference: multiply by i xi, zeroing every Nyquist plane."""
    xi = full_freq(grid)
    nyquist = np.isclose(np.abs(xi), np.pi / grid.spacing, rtol=1e-12, atol=0.0)
    return full_ifftn(grid, 1j * xi[axis] * ~np.any(nyquist, axis=0) * full_fftn(grid, u))


def _rel_err(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


class TestComplexPathAgreement:
    """The half-spectrum path reproduces the complex-FFT path on white noise,
    which carries full Nyquist content (where a naive port is off by percents).
    The semigroups are checked against the dense exponential of lame_apply
    instead: on the Nyquist-mixed modes the complex path's a P + b Q is not a
    function of the real-data symbol (its Q is not idempotent there)."""

    @pytest.fixture(params=[2, 3], ids=["2d", "3d"])
    def case(self, request):
        dim = request.param
        grid = Grid(dim, 16 if dim == 2 else 8, 8.0)
        return grid, rng_field(grid, 20 + dim, ncomp=dim), rng_field(grid, 30 + dim)

    def test_isotropic_symbols(self, case):
        grid, u, _ = case
        params = LameParams(1.0, 1.5)
        xi2 = full_freq_sq(grid)
        ref = _complex_isotropic(grid, u, -params.mu * xi2, -params.nu * xi2)
        assert _rel_err(lame_apply(grid, u, params), ref) <= 1e-13
        t = 0.03
        expm = next(dense_semigroup_matrices(Coefficient.constant(grid, 1.0), params, [t]))
        ref = (expm @ u.ravel()).reshape(u.shape)
        assert _rel_err(const_semigroup(grid, u, t, params), ref) <= 1e-13
        ref = t * (dense_lame_matrix(grid, params) @ ref.ravel()).reshape(u.shape)
        assert _rel_err(_apply(grid, _spectral(grid, u, params), _heat(t, 1)), ref) <= 1e-13

    @pytest.mark.parametrize("lam", [1.5, -1.5])
    def test_preconditioner_inverts_operator(self, case, lam):
        # exact on every mode, the Nyquist-mixed ones included
        grid, u, _ = case
        params = LameParams(1.0, lam)
        z = _preconditioner(grid, params, 7.0)(u)
        assert _rel_err(7.0 * z - 0.5 * lame_apply(grid, z, params), u) <= 1e-13

    @pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)])
    def test_stacked_lame_apply_is_per_field(self, dim, n):
        grid = Grid(dim, n, 8.0)
        params = LameParams(1.0, -0.5)
        stack = np.stack([rng_field(grid, 50 + k, ncomp=dim) for k in range(7)])
        assert np.array_equal(lame_apply(grid, stack, params), np.stack([lame_apply(grid, u, params) for u in stack]))

    def test_derivatives(self, case):
        grid, u, s = case
        ref = np.stack([_complex_derivative(grid, s, axis) for axis in range(grid.dim)])
        assert _rel_err(jacobian(grid, s), ref) <= 1e-13
        ref = np.stack([[_complex_derivative(grid, u[i], j) for j in range(grid.dim)] for i in range(grid.dim)])
        assert _rel_err(jacobian(grid, u), ref) <= 1e-13
