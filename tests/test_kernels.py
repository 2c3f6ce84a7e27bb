from dataclasses import dataclass

import numpy as np
import pytest

from lamelab.fields import checkerboard_density, delta_field, random_band_field
from lamelab.grid import Grid, jacobian, lp_norm
from lamelab.kernels import (
    EnvelopeFitError,
    KernelSlice,
    check_kernel_times,
    conservation_defect,
    davies_probe,
    davies_twisted_norm,
    gaussian_fit,
    gradient_envelope,
    kernel_column,
    symmetry_defect,
    torus_distance,
)
from lamelab.operators import LameParams
from lamelab.varcoef import Coefficient, StepperConfig, dense_semigroup_matrices, evolve

from conftest import full_fftn, full_freq, full_freq_sq, full_hodge_symbols, full_ifftn


LAPLACE_LIKE = LameParams(1.0, -1.0)  # nu = mu: scalar heat flow per component


def periodized_gaussian(grid, y0, t, c=1.0):
    """Lattice-sum oracle: sum of images of (4 pi c t)^{-n/2} exp(-d^2/(4 c t))."""
    y = grid.coords[(slice(None),) + tuple(y0)].reshape((grid.dim,) + (1,) * grid.dim)
    out = np.zeros(grid.shape)
    for mx in (-1, 0, 1):
        for my in (-1, 0, 1):
            shift = np.array([mx, my]).reshape((2,) + (1,) * grid.dim) * grid.extent
            d2 = np.sum((grid.coords - y - shift) ** 2, axis=0)
            out += np.exp(-d2 / (4.0 * c * t))
    return out / (4.0 * np.pi * c * t) ** (grid.dim / 2.0)


def synth_lame_kernel(grid, params, y0, t_eff):
    """Spectral synthesis of the constant-coefficient column family."""
    P, Q = full_hodge_symbols(grid)
    xi2 = full_freq_sq(grid)
    dp = np.exp(-params.mu * t_eff * xi2)
    dq = np.exp(-params.nu * t_eff * xi2)
    delta_hat = full_fftn(grid, delta_field(grid, y0))
    K = np.empty((grid.dim, grid.dim) + grid.shape)
    for k in range(grid.dim):
        K[:, k] = full_ifftn(grid, (dp * P[:, k] + dq * Q[:, k]) * delta_hat)
    return K


@pytest.fixture(scope="module")
def rough_slices():
    # shared rough-density column family (the expensive fixture)
    grid = Grid(2, 64, 8.0)
    coef = Coefficient(grid, checkerboard_density(grid, 0.5), 0.5)
    params = LameParams(1.0, 1.0)
    slices = kernel_column(
        coef, params, (32, 32), [0.05, 0.1, 0.2], StepperConfig(dt=2e-3), presmooth=True
    )
    return coef, params, slices


@pytest.fixture(scope="module")
def heat_slices_128():
    # scalar heat flow at rho = 1; dt small enough that the Crank-Nicolson
    # Nyquist residue of the raw delta is dead long before the first slice
    grid = Grid(2, 128, 8.0)
    coef = Coefficient.constant(grid, 1.0)
    return kernel_column(coef, LAPLACE_LIKE, (64, 64), [0.05, 0.1, 0.2], StepperConfig(dt=5e-4))


class TestKernelColumn:
    def test_heat_kernel_against_periodized_gaussian(self):
        grid = Grid(2, 64, 8.0)
        coef = Coefficient.constant(grid, 1.0)
        t = 0.1
        slices = kernel_column(coef, LAPLACE_LIKE, (32, 32), [t], StepperConfig(dt=3e-4))
        gauss = periodized_gaussian(grid, (32, 32), t)
        kern = slices[0].kernel
        scale = np.max(gauss)
        assert np.max(np.abs(kern[0, 0] - gauss)) / scale < 1e-5
        assert np.max(np.abs(kern[1, 1] - gauss)) / scale < 1e-5
        assert np.max(np.abs(kern[0, 1])) / scale < 1e-5

    def test_lame_kernel_against_spectral_synthesis(self):
        grid = Grid(2, 64, 16.0)
        coef = Coefficient.constant(grid, 1.0)
        params = LameParams(1.0, 1.0)
        t = 0.1
        slices = kernel_column(coef, params, (32, 32), [t], StepperConfig(dt=3e-4))
        ref = synth_lame_kernel(grid, params, (32, 32), t + slices[0].presmooth_t)
        err = np.max(np.abs(slices[0].kernel - ref)) / np.max(np.abs(ref))
        assert err < 1e-5

    def test_conservation_any_density(self, rough_slices):
        coef, _, slices = rough_slices
        for slc in slices:
            assert conservation_defect(coef, slc) < 1e-6

    def test_presmooth_recorded_and_consistent(self, rough_slices):
        coef, _, slices = rough_slices
        grid = coef.grid
        assert slices[0].presmooth_t == pytest.approx(2.0 * grid.spacing**2)
        # pre-smoothing mollifies the conserved source momentum away from rho(y0) I
        assert slices[0].rho_source != pytest.approx(float(coef.rho[32, 32]), abs=1e-9)

    def test_unsmoothed_momentum_is_nodal_density(self):
        grid = Grid(2, 32, 8.0)
        coef = Coefficient(grid, checkerboard_density(grid, 0.5), 0.5)
        slices = kernel_column(coef, LameParams(1.0, 1.0), (7, 21), [0.1], StepperConfig(dt=5e-3))
        expected = float(coef.rho[7, 21]) * np.eye(2)
        assert np.max(np.abs(slices[0].source_momentum - expected)) < 1e-12

    def test_rejects_unresolved_time(self):
        grid = Grid(2, 32, 16.0)
        coef = Coefficient.constant(grid, 1.0)
        with pytest.raises(ValueError):
            kernel_column(coef, LameParams(1.0, 1.0), (16, 16), [1e-4], StepperConfig(dt=1e-5))

    def test_rejects_no_times(self):
        with pytest.raises(ValueError, match="nonempty list"):
            check_kernel_times(Grid(2, 32, 16.0), LameParams(1.0, 1.0), [])


class TestTorusDistance:
    def test_wraps_around(self):
        grid = Grid(2, 16, 8.0)
        d = torus_distance(grid, (0, 0))
        assert d[0, 0] == 0.0
        assert d[8, 0] == pytest.approx(4.0)
        assert d[15, 0] == pytest.approx(0.5)


class TestGaussianFit:
    def test_recovers_exact_gaussian(self):
        grid = Grid(2, 128, 8.0)
        amp, c_dec = 0.7, 4.0
        slices = []
        for t in (0.05, 0.1, 0.2):
            d = torus_distance(grid, (64, 64))
            prof = amp * t ** (-1.0) * np.exp(-(d**2) / (c_dec * t))
            kern = np.zeros((2, 2) + grid.shape)
            kern[0, 0] = prof
            kern[1, 1] = prof
            slices.append(KernelSlice(grid, (64, 64), t, kern, 1.0, np.eye(2)))
        fit = gaussian_fit(slices)
        assert fit.amplitude == pytest.approx(amp, rel=1e-2)
        assert fit.c_dec == pytest.approx(c_dec, rel=1e-2)
        assert fit.r_squared > 0.999

    def test_heat_kernel_constants(self, heat_slices_128):
        # rho = 1 scalar flow: C1 = (4 pi)^{-n/2}, c_dec = 4 within 5%
        fit = gaussian_fit(heat_slices_128)
        assert fit.c_dec == pytest.approx(4.0, rel=0.05)
        assert fit.amplitude == pytest.approx((4 * np.pi) ** (-1.0), rel=0.05)

    def test_rough_density_envelope(self, rough_slices):
        _, _, slices = rough_slices
        fit = gaussian_fit(slices)
        assert fit.amplitude > 0 and fit.c_dec > 0  # slope < 0 enforced in type
        assert fit.r_squared >= 0.9

    def test_rejects_thin_window(self):
        grid = Grid(2, 32, 8.0)
        kern = np.ones((2, 2) + grid.shape)
        slc = KernelSlice(grid, (16, 16), 0.9, kern, 1.0, np.eye(2))  # 2 sqrt(t) ~ L/4
        with pytest.raises(EnvelopeFitError):
            gaussian_fit([slc])


class TestGradientEnvelope:
    def test_heat_kernel_gradient_rate(self, heat_slices_128):
        fit = gradient_envelope(heat_slices_128)
        # the |x-y|/t prefactor folds into the window: rate within 10% of 4
        assert fit.c_dec == pytest.approx(4.0, rel=0.10)
        assert fit.r_squared > 0.98

    def test_rough_density_gradient(self, rough_slices):
        _, _, slices = rough_slices
        fit = gradient_envelope(slices)
        assert fit.r_squared >= 0.85


class TestSymmetry:
    def test_constant_density_symmetric(self):
        grid = Grid(2, 32, 8.0)
        coef = Coefficient.constant(grid, 1.0)
        params = LameParams(1.0, 1.0)
        cfg = StepperConfig(dt=2e-3)
        s_a = kernel_column(coef, params, (16, 16), [0.1], cfg)[0]
        s_b = kernel_column(coef, params, (20, 10), [0.1], cfg)[0]
        assert symmetry_defect(s_a, s_b) < 1e-8

    def test_rough_density_symmetric(self):
        grid = Grid(2, 32, 8.0)
        coef = Coefficient(grid, checkerboard_density(grid, 0.5), 0.5)
        params = LameParams(1.0, 1.0)
        cfg = StepperConfig(dt=5e-3)
        s_a = kernel_column(coef, params, (16, 16), [0.1], cfg)[0]
        s_b = kernel_column(coef, params, (22, 9), [0.1], cfg)[0]
        assert symmetry_defect(s_a, s_b) < 1e-4

    def test_rejects_time_mismatch(self):
        grid = Grid(2, 16, 8.0)
        kern = np.ones((2, 2) + grid.shape)
        a = KernelSlice(grid, (0, 0), 0.1, kern, 1.0, np.eye(2))
        b = KernelSlice(grid, (4, 4), 0.2, kern, 1.0, np.eye(2))
        with pytest.raises(ValueError):
            symmetry_defect(a, b)


@dataclass(frozen=True, eq=False)
class HolderReport:
    quotient: np.ndarray
    max_in_window: float
    h_norm: float


def holder_quotient(slc, h_steps, gamma, c_ref):
    """Weighted Hoelder quotient of the kernel gradient for a grid-step shift h.

    Computes |grad S(x+h) - grad S(x)| * (sqrt(t)/|h|)^gamma * t^{(n+1)/2}
    * exp(+d^2 / (c_ref t)); finite c_ref from the gradient fit makes the
    maximum over the trust window the observable Hoelder constant.

    |.| is the Frobenius norm over the (i, k, derivative) axes of the
    gradient difference. The quotient is compared across shift directions,
    so its norm must be rotation-invariant: a rotation carries an axial
    shift onto a diagonal one and mixes all three axes, and the largest
    entry (the envelope fits' per-entry norm) changes under it, which
    makes even the exact constant-coefficient kernel look direction-dependent.
    """
    grid = slc.grid
    h_steps = np.asarray(h_steps, dtype=int)
    h_norm = float(np.sqrt(np.sum(h_steps.astype(float) ** 2))) * grid.spacing
    if 2.0 * h_norm > np.sqrt(slc.t):
        raise ValueError(f"shift |h| = {h_norm:.3g} violates 2|h| <= sqrt(t)")
    if h_norm == 0.0:
        return HolderReport(np.zeros(grid.shape), 0.0, 0.0)
    g = jacobian(grid, slc.symmetrized)  # (i, k, derivative, *shape)
    shifted = np.roll(g, shift=tuple(-h_steps), axis=grid.spatial_axes)
    diff = np.sqrt(np.sum((shifted - g) ** 2, axis=tuple(range(g.ndim - grid.dim))))
    d = torus_distance(grid, slc.y0)
    q = (
        diff
        * (np.sqrt(slc.t) / h_norm) ** gamma
        * slc.t ** ((grid.dim + 1) / 2.0)
        * np.exp(d**2 / (c_ref * slc.t))
    )
    window = (d >= 2.0 * np.sqrt(slc.t)) & (d <= grid.extent / 4.0)
    return HolderReport(q, float(np.max(q[window])), h_norm)


class TestHolder:
    def test_zero_shift_is_zero(self, rough_slices):
        _, _, slices = rough_slices
        rep = holder_quotient(slices[-1], (0, 0), 0.5, 4.0)
        assert rep.max_in_window == 0.0

    def test_rejects_large_shift(self, rough_slices):
        _, _, slices = rough_slices
        with pytest.raises(ValueError):
            holder_quotient(slices[0], (4, 0), 0.5, 4.0)  # 2|h| > sqrt(0.05)

    def test_direction_stability_rough(self, rough_slices):
        # equal-length shifts in two directions; N = 64 admits only one step
        _, _, slices = rough_slices
        gfit = gradient_envelope(slices)
        maxima = [
            holder_quotient(slices[-1], hv, 0.5, gfit.c_dec).max_in_window
            for hv in ((1, 0), (0, 1))
        ]
        spread = (max(maxima) - min(maxima)) / min(maxima)
        assert spread <= 0.30, f"maxima {maxima}"

    def test_synthetic_gaussian_stability(self):
        # pipeline check on an exact radial profile: near-equal-length shifts
        # in different directions give near-equal quotient maxima
        grid = Grid(2, 128, 8.0)
        t = 0.2
        d = torus_distance(grid, (64, 64))
        prof = t ** (-1.0) * np.exp(-(d**2) / (4.0 * t))
        kern = np.zeros((2, 2) + grid.shape)
        kern[0, 0] = prof
        kern[1, 1] = prof
        slc = KernelSlice(grid, (64, 64), t, kern, 1.0, np.eye(2))
        maxima = [
            holder_quotient(slc, hv, 0.5, 4.0).max_in_window
            for hv in ((3, 0), (0, 3), (2, 2))
        ]
        spread = (max(maxima) - min(maxima)) / min(maxima)
        assert spread <= 0.30

    def test_exact_lame_kernel_direction_stability(self):
        # the exact constant-coefficient Lame kernel has no preferred direction,
        # so axial and diagonal shifts must give near-equal quotient maxima; a
        # norm that is not rotation-invariant spreads them by about 30%
        grid = Grid(2, 128, 8.0)
        params = LameParams(1.0, 1.0)
        t = 0.2
        kern = synth_lame_kernel(grid, params, (64, 64), t)
        slc = KernelSlice(grid, (64, 64), t, kern, 1.0, np.eye(2))
        maxima = [
            holder_quotient(slc, hv, 0.5, 15.0).max_in_window
            for hv in ((3, 0), (0, 3), (2, 2))
        ]
        spread = (max(maxima) - min(maxima)) / min(maxima)
        assert spread <= 0.10, f"maxima {maxima}, spread {spread:.1%}"


class TestDavies:
    def test_probe_constraints(self, grid32):
        for alpha in (0.5, 1.0, 2.0):
            probe = davies_probe(grid32, alpha)
            grad = jacobian(grid32, probe.psi)
            psi_hat = full_fftn(grid32, probe.psi)
            hess = np.stack([full_ifftn(grid32, -full_freq(grid32)[a] ** 2 * psi_hat) for a in range(2)])
            assert np.max(np.abs(grad)) <= alpha * (1 + 1e-9)
            assert np.max(np.abs(hess)) <= alpha**2 * (1 + 1e-9)

    def test_zero_twist_is_contraction(self):
        grid = Grid(2, 32, 8.0)
        m = 0.5
        coef = Coefficient(grid, checkerboard_density(grid, m), m)
        params = LameParams(1.0, 1.0)
        u0 = random_band_field(grid, 1, 3, seed=1, ncomp=2)
        rep = davies_twisted_norm(
            coef, params, [davies_probe(grid, 0.0)], u0, [0.1, 0.3], StepperConfig(dt=5e-3)
        )
        assert max(rep.log_growth[0]) <= np.log(1.0 / m) + 1e-9

    def test_growth_constant_across_alpha_grid(self):
        grid = Grid(2, 32, 8.0)
        coef = Coefficient(grid, checkerboard_density(grid, 0.5), 0.5)
        params = LameParams(1.0, 1.0)
        u0 = random_band_field(grid, 1, 3, seed=2, ncomp=2)
        probes = [davies_probe(grid, a) for a in (0.0, 0.5, 1.0, 2.0)]
        rep = davies_twisted_norm(coef, params, probes, u0, [0.1, 0.2, 0.4], StepperConfig(dt=5e-3))
        assert np.isfinite(rep.growth_constant)
        # the constant is the largest of the per-alpha constants of the curves
        times = np.asarray(rep.times)
        per_alpha = [np.max(np.asarray(g) / (1.0 + a**2 * times)) for a, g in zip(rep.alphas, rep.log_growth)]
        assert rep.growth_constant == max(per_alpha)

    def test_twisted_flow_against_dense_oracle(self):
        # phi^{-1} e^{t b L} phi is similar to e^{t b L}: dense oracle check
        grid = Grid(2, 16, 8.0)
        coef = Coefficient(grid, checkerboard_density(grid, 0.5), 0.5)
        params = LameParams(1.0, 1.0)
        probe = davies_probe(grid, 1.0)
        u0 = random_band_field(grid, 1, 3, seed=3, ncomp=2)
        t = 0.1
        cfg = StepperConfig(dt=1e-3)
        v_num = evolve(coef, params, probe.phi * u0, [0.0, t], cfg)[-1] / probe.phi
        v_ora = (next(dense_semigroup_matrices(coef, params, [t])) @ (probe.phi * u0).ravel()).reshape(u0.shape) / probe.phi
        rel = lp_norm(grid, v_num - v_ora, 2) / lp_norm(grid, v_ora, 2)
        assert rel < 1e-4

    def test_untwisted_reduction(self):
        # amplitude 0 probe has phi = 1: identical to the plain evolution
        grid = Grid(2, 16, 8.0)
        probe = davies_probe(grid, 0.0)
        assert np.max(np.abs(probe.phi - 1.0)) == 0.0
