import numpy as np
import pytest

from lamelab import grid as grid_module
from lamelab.besov import BesovIndex, besov_norm_report, besov_norm_reports
from lamelab.cli import run_maxreg
from lamelab.fields import checkerboard_density, random_band_field, random_time_profile
from lamelab.grid import Grid, chunks
from lamelab.maxreg import (
    DegenerateProbeError,
    norm_equiv_ratio,
    solution_norms,
    solve_linear_maxreg,
    time_derivative,
)
from lamelab.operators import const_semigroup, lame_apply
from lamelab.scenarios import parse_maxreg
from lamelab.varcoef import Coefficient, StepperConfig, evolve, time_grid

from conftest import hodge_project, plane_wave


@pytest.fixture(scope="module")
def rough32():
    grid = Grid(2, 32, 16.0)
    return Coefficient(grid, checkerboard_density(grid, 0.5), 0.5)


L2_SPACE = BesovIndex(0.0, 2.0)  # n/p - 1 = 0 at p = 2 in 2D


def no_forcing(u0, t_grid):
    """Zero forcing on the run's time grid, as its profile and field."""
    return np.zeros(len(t_grid)), np.zeros_like(u0)


class TestSolveLinear:
    def test_zero_data_zero_ratio(self, grid32, params):
        coef = Coefficient.constant(grid32, 1.0)
        u0 = np.zeros((2,) + grid32.shape)
        t_grid = time_grid(1.0, 0.05)
        rep = solve_linear_maxreg(coef, params, u0, *no_forcing(u0, t_grid), L2_SPACE, t_grid, StepperConfig(dt=0.05))
        assert rep.ratio == 0.0
        assert rep.sup_norm == rep.dt_norm == rep.op_norm == 0.0

    def test_constant_density_dyadic_bump(self, grid32, params):
        # s = n/p - 1 = 0, p = 2, single-polarization one-octave bump: the
        # flow is a single decay rate per mode, so each L1 budget is below
        # the sup and the ratio stays under 1 + 2 = 3
        coef = Coefficient.constant(grid32, 1.0)
        u0 = hodge_project(grid32, random_band_field(grid32, 2, 3, seed=1, ncomp=2), "P")
        t_grid = time_grid(4.0, 0.01)
        rep = solve_linear_maxreg(coef, params, u0, *no_forcing(u0, t_grid), L2_SPACE, t_grid, StepperConfig(dt=0.01))
        assert rep.ratio <= 3.0
        assert rep.forcing_norm == 0.0

    def test_matches_spectral_oracle(self, grid32, params):
        # with rho = 1, du/dt = L u exactly; rebuild every output norm from
        # the exact semigroup at the same nodes and compare to 1%
        coef = Coefficient.constant(grid32, 1.0)
        u0 = random_band_field(grid32, 2, 4, seed=2, ncomp=2)
        idx, T, dt = BesovIndex(0.0, 2.0), 2.0, 0.005
        nodes = time_grid(T, dt)
        rep = solve_linear_maxreg(coef, params, u0, *no_forcing(u0, nodes), idx, nodes, StepperConfig(dt=dt))

        traj = np.stack([const_semigroup(grid32, u0, t, params) for t in nodes])
        bes = lambda u: besov_norm_report(grid32, u, idx).value
        sup = max(bes(u) for u in traj)
        op_vals = [bes(lame_apply(grid32, u, params)) for u in traj]
        op_l1 = float(np.trapezoid(op_vals, dx=dt))
        oracle_ratio = (sup + 2.0 * op_l1) / bes(u0)
        assert rep.ratio == pytest.approx(oracle_ratio, rel=0.01)

    def test_long_run(self, params):
        # 10^4 steps: time_grid's nodes are exact only to an ulp of their time, so
        # the forcing's intervals come out a little over dt and must not be refused
        grid = Grid(2, 8, 8.0)
        u0 = random_band_field(grid, 1, 2, seed=1, ncomp=2)
        T, dt = 10.0, 1e-3
        coef = Coefficient.constant(grid, 1.0)
        t_grid = time_grid(T, dt)
        rep = solve_linear_maxreg(coef, params, u0, *no_forcing(u0, t_grid), L2_SPACE, t_grid, StepperConfig(dt=dt))
        assert np.isfinite(rep.ratio)

    def test_rough_density_ratio_finite(self, rough32, params):
        u0 = random_band_field(rough32.grid, 1, 4, seed=3, ncomp=2)
        t_grid = time_grid(2.0, 0.01)
        rep = solve_linear_maxreg(rough32, params, u0, *no_forcing(u0, t_grid), L2_SPACE, t_grid, StepperConfig(dt=0.01))
        assert np.isfinite(rep.ratio)
        assert rep.ratio > 0

    @pytest.mark.parametrize("idx", [L2_SPACE, BesovIndex(2.0 / 3.0 - 1.0, 3.0)], ids=["p2", "p3"])
    def test_factored_forcing_matches_stacked_run(self, rough32, params, idx):
        grid = rough32.grid
        t_grid, cfg = time_grid(0.1, 0.01), StepperConfig(dt=0.01)
        # g's lowest band leaks, u0's does not: the forcing's leakage is the largest
        u0 = random_band_field(grid, 3, 4, seed=3, ncomp=2)
        prof, fx = random_time_profile(t_grid, 7), random_band_field(grid, 1, 1.5, seed=8, ncomp=2)
        rep = solve_linear_maxreg(rough32, params, u0, prof, fx, idx, t_grid, cfg)

        # the stacked reference: the whole forcing stack, its norm the trapezoid of per-node norms
        stack = prof[:, None, None, None] * fx
        dt = t_grid[1] - t_grid[0]
        out = solution_norms(grid, evolve(rough32, params, u0, t_grid, cfg, forcing=stack), dt, params, idx)
        assert (rep.sup_norm, rep.dt_norm, rep.op_norm) == (out.sup_norm, out.dt_norm, out.op_norm)
        f_reps = besov_norm_reports(grid, stack, idx)
        f_l1 = float(np.trapezoid([r.value for r in f_reps], dx=dt))
        assert f_l1 > 0.0 and rep.forcing_norm == pytest.approx(f_l1, rel=1e-13, abs=0.0)
        u0_rep = besov_norm_report(grid, u0, idx)
        leak = max(r.leakage for r in f_reps)
        assert leak > max(out.max_leakage, u0_rep.leakage)
        assert rep.max_leakage == pytest.approx(leak, rel=1e-13, abs=0.0)
        assert rep.ratio == pytest.approx(out.total / (u0_rep.value + f_l1), rel=1e-13, abs=0.0)

    def test_probe_memory_does_not_grow_with_horizon(self, tmp_path, monkeypatch):
        # a probe holds its trajectory and one chunk of nodes, not a forcing stack
        # or its spectrum: from T = 0.5 to T = 2 (51 to 201 nodes) the peak grows
        # by the trajectory of the added nodes, give or take a quarter
        import tracemalloc

        cfg = {
            "grid": {"dim": 2, "N": 16, "extent": 8.0},
            "lame": {"mu": 1.0, "lambda": 1.0},
            "rho0": {"kind": "checkerboard", "m": 0.5, "sharpness": 2.0},
            "stepper": {"dt": 0.01},
            "probes": {"count": 1},
        }
        node_bytes = 2 * 16 * 16 * 8
        monkeypatch.setattr(grid_module, "CHUNK_BYTES", 8 * node_bytes)
        peaks = []
        for T in (0.5, 0.5, 2.0):  # the first run fills the caches
            plan = parse_maxreg({**cfg, "T": T}, 0)
            tracemalloc.start()
            try:
                run_maxreg(tmp_path, **plan)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert plan["norm_equiv"] is None
        growth = (peaks[2] - peaks[1]) / (150 * node_bytes)
        assert growth <= 1.25


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

    def test_chunks_of_nodes_keep_the_bits(self, rough32, params, monkeypatch):
        # 11 nodes in chunks of 3 (3 + 3 + 3 + 2) against one chunk over the
        # whole trajectory: every norm is equal, bit for bit
        grid = rough32.grid
        v = 0.05 * random_band_field(grid, 1, 2, seed=4, ncomp=2)
        w = 0.05 * random_band_field(grid, 1, 3, seed=42, ncomp=2)
        t = np.linspace(0.0, 1.0, 11)
        traj = np.stack([(1.0 - 0.5 * s) * v + s * s * w for s in t])
        sizes, norms = [], []
        for nodes_per_chunk in (len(t), 3):
            monkeypatch.setattr(grid_module, "CHUNK_BYTES", nodes_per_chunk * traj[0].nbytes)
            sizes.append([n.stop - n.start for n in chunks(len(t), traj[0].nbytes)])
            norms.append(solution_norms(grid, traj, t[1], params, L2_SPACE))
        assert sizes == [[11], [3, 3, 3, 2]]
        assert norms[0] == norms[1]

    def test_time_derivative_centered(self):
        traj = np.arange(5.0)[:, None] * np.ones((5, 3))
        dt = 0.5
        du = time_derivative(traj, dt, slice(0, 5))
        assert np.allclose(du, 2.0)


class TestNormEquivalence:
    def test_constant_density_is_unity(self, grid32, params):
        coef = Coefficient.constant(grid32, 1.0)
        x = random_band_field(grid32, 1, 4, seed=5, ncomp=2)
        r = norm_equiv_ratio(coef, params, x, 0.5, 1.0)
        assert r == pytest.approx(1.0, abs=1e-9)  # no time-step error: the Krylov space is exact here

    def test_takes_no_time_step(self, rough32, params, monkeypatch):
        import lamelab.varcoef as vc

        def refused(*args, **kwargs):
            raise AssertionError("norm_equiv_ratio stepped")

        monkeypatch.setattr(vc, "theta_step", refused)
        x = random_band_field(rough32.grid, 1, 4, seed=5, ncomp=2)
        assert np.isfinite(norm_equiv_ratio(rough32, params, x, 0.5, 1.0))

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
