import numpy as np
import pytest

from lamelab.besov import BesovIndex, besov_norm_report
from lamelab.fields import checkerboard_density, random_band_field
from lamelab.grid import Grid
from lamelab.maxreg import (
    DegenerateProbeError,
    norm_equiv_ratio,
    solution_norms,
    solve_linear_maxreg,
    time_derivative,
    time_grid,
)
from lamelab.operators import const_semigroup, lame_apply
from lamelab.varcoef import Coefficient, StepperConfig

from conftest import hodge_project, plane_wave


@pytest.fixture(scope="module")
def rough32():
    grid = Grid(2, 32, 16.0)
    return Coefficient(grid, checkerboard_density(grid, 0.5), 0.5)


def no_forcing(u0, T, dt):
    """Zero forcing sampled on the run's time grid."""
    return np.zeros((len(time_grid(T, dt)),) + u0.shape)


class TestSolveLinear:
    def test_zero_data_zero_ratio(self, grid32, params):
        coef = Coefficient.constant(grid32, 1.0)
        u0 = np.zeros((2,) + grid32.shape)
        rep = solve_linear_maxreg(coef, params, u0, no_forcing(u0, 1.0, 0.05), 0.0, 2.0, 1.0, StepperConfig(dt=0.05))
        assert rep.ratio == 0.0
        assert rep.sup_norm == rep.dt_norm == rep.op_norm == 0.0

    def test_constant_density_dyadic_bump(self, grid32, params):
        # s = n/p - 1 = 0, p = 2, single-polarization one-octave bump: the
        # flow is a single decay rate per mode, so each L1 budget is below
        # the sup and the ratio stays under 1 + 2 = 3
        coef = Coefficient.constant(grid32, 1.0)
        u0 = hodge_project(grid32, random_band_field(grid32, 2, 3, seed=1, ncomp=2), "P")
        rep = solve_linear_maxreg(coef, params, u0, no_forcing(u0, 4.0, 0.01), 0.0, 2.0, 4.0, StepperConfig(dt=0.01))
        assert rep.ratio <= 3.0
        assert rep.forcing_norm == 0.0

    def test_matches_spectral_oracle(self, grid32, params):
        # with rho = 1, du/dt = L u exactly; rebuild every output norm from
        # the exact semigroup at the same nodes and compare to 1%
        coef = Coefficient.constant(grid32, 1.0)
        u0 = random_band_field(grid32, 2, 4, seed=2, ncomp=2)
        s, p, T, dt = 0.0, 2.0, 2.0, 0.005
        rep = solve_linear_maxreg(coef, params, u0, no_forcing(u0, T, dt), s, p, T, StepperConfig(dt=dt))

        idx = BesovIndex(s, p)
        nodes = np.linspace(0.0, T, int(round(T / dt)) + 1)
        traj = np.stack([const_semigroup(grid32, u0, t, params) for t in nodes])
        bes = lambda u: besov_norm_report(grid32, u, idx).value
        sup = max(bes(u) for u in traj)
        op_vals = [bes(lame_apply(grid32, u, params)) for u in traj]
        op_l1 = float(np.trapezoid(op_vals, dx=dt))
        oracle_ratio = (sup + 2.0 * op_l1) / bes(u0)
        assert rep.ratio == pytest.approx(oracle_ratio, rel=0.01)

    def test_rough_density_ratio_finite(self, rough32, params):
        u0 = random_band_field(rough32.grid, 1, 4, seed=3, ncomp=2)
        rep = solve_linear_maxreg(rough32, params, u0, no_forcing(u0, 2.0, 0.01), 0.0, 2.0, 2.0, StepperConfig(dt=0.01))
        assert np.isfinite(rep.ratio)
        assert rep.ratio > 0


class TestSolutionNorms:
    def test_zero_trajectory(self, grid32, params):
        traj = np.zeros((5, 2) + grid32.shape)
        norms = solution_norms(grid32, traj, 0.1, params, BesovIndex(0.0, 2.0))
        assert norms.total == 0.0

    def test_requires_three_samples(self, grid32, params):
        traj = np.zeros((2, 2) + grid32.shape)
        with pytest.raises(ValueError):
            solution_norms(grid32, traj, 0.1, params, BesovIndex(0.0, 2.0))

    def test_constant_in_time(self, grid32, params):
        u = random_band_field(grid32, 1, 4, seed=4, ncomp=2)
        traj = np.broadcast_to(u, (9,) + u.shape).copy()
        T = 0.8
        idx = BesovIndex(0.0, 2.0)
        norms = solution_norms(grid32, traj, T / 8, params, idx)
        bes_u = besov_norm_report(grid32, u, idx).value
        bes_lame = besov_norm_report(grid32, lame_apply(grid32, u, params), idx).value
        assert norms.dt_norm == pytest.approx(0.0, abs=1e-12)
        assert norms.sup_norm == pytest.approx(bes_u, rel=1e-12)
        assert norms.op_norm == pytest.approx(T * bes_lame, rel=1e-12)

    def test_heat_decay_closed_form(self, grid32, params):
        # single divergence-free mode: all three parts have closed forms
        kvec = (1, 0)
        xi2 = (2 * np.pi / grid32.extent) ** 2
        rate = params.mu * xi2
        u0 = np.stack([np.zeros(grid32.shape), plane_wave(grid32, kvec)])
        T = 2.0
        nt = 801
        t = np.linspace(0.0, T, nt)
        traj = np.exp(-rate * t)[:, None, None, None] * u0
        idx = BesovIndex(0.0, 2.0)
        norms = solution_norms(grid32, traj, t[1], params, idx)
        bes_u0 = besov_norm_report(grid32, u0, idx).value
        decay_budget = (1.0 - np.exp(-rate * T)) * bes_u0
        assert norms.sup_norm == pytest.approx(bes_u0, rel=1e-10)
        assert norms.dt_norm == pytest.approx(decay_budget, rel=1e-3)
        assert norms.op_norm == pytest.approx(decay_budget, rel=1e-3)

    def test_time_derivative_centered(self):
        traj = np.arange(5.0)[:, None] * np.ones((5, 3))
        dt = 0.5
        du = time_derivative(traj, dt)
        assert np.allclose(du, 2.0)


class TestNormEquivalence:
    def test_constant_density_is_unity(self, grid32, params):
        coef = Coefficient.constant(grid32, 1.0)
        x = random_band_field(grid32, 1, 4, seed=5, ncomp=2)
        r = norm_equiv_ratio(coef, params, x, 0.5, 1.0)
        assert r == pytest.approx(1.0, abs=1e-3)

    def test_scaled_constant_density_x_independent(self, grid32, params):
        # both profiles rescale deterministically: the ratio loses its x dependence
        coef = Coefficient.constant(grid32, 1.25)
        vals = [
            norm_equiv_ratio(coef, params, random_band_field(grid32, 1, 4, seed=s, ncomp=2), 0.5, 1.0)
            for s in range(10)
        ]
        spread = (max(vals) - min(vals)) / np.mean(vals)
        assert spread < 1e-3

    def test_rejects_s_out_of_range(self, grid32, params):
        coef = Coefficient.constant(grid32, 1.0)
        x = random_band_field(grid32, 1, 4, seed=6, ncomp=2)
        with pytest.raises(ValueError):
            norm_equiv_ratio(coef, params, x, 1.5, 1.0)

    def test_zero_probe_is_degenerate(self, grid32, params):
        coef = Coefficient.constant(grid32, 1.0)
        x = np.zeros((2,) + grid32.shape)
        with pytest.raises(DegenerateProbeError):
            norm_equiv_ratio(coef, params, x, 0.5, 1.0)

    def test_rough_density_bounded(self, rough32, params):
        vals = [
            norm_equiv_ratio(rough32, params, random_band_field(rough32.grid, 1, 4, seed=s, ncomp=2), 0.5, 1.0)
            for s in range(6)
        ]
        k = max(max(vals), 1.0 / min(vals))
        assert k < 50.0
