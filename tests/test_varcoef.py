import gc
import os
import subprocess
import sys

from dataclasses import dataclass

import numpy as np
import pytest

from lamelab.besov import extended_time_nodes
from lamelab.fields import checkerboard_density, random_band_field, random_time_profile, trig_density
from lamelab.grid import Grid, fftn, ifftn, integral, lp_norm
from lamelab.operators import LameParams, _symbol_matrix, const_semigroup, lame_apply
from lamelab.varcoef import (
    Coefficient,
    SolverConvergenceError,
    StepperConfig,
    dense_lame_matrix,
    dense_semigroup_matrices,
    _pcg,
    _preconditioner,
    evolve,
    semigroup,
    theta_step,
    time_grid,
)

from conftest import plane_wave, record_builds, rng_field


@pytest.fixture(scope="module")
def rough16():
    grid = Grid(2, 16, 8.0)
    return Coefficient(grid, checkerboard_density(grid, 0.5), 0.5)


class TestCoefficient:
    def test_reciprocal_exact(self, grid32):
        rho = trig_density(grid32, 0.5, seed=1)
        coef = Coefficient(grid32, rho, 0.5)
        assert np.max(np.abs(coef.b * coef.rho - 1.0)) < 1e-14

    def test_rejects_range_violation(self, grid32):
        rho = np.full(grid32.shape, 3.0)
        with pytest.raises(ValueError):
            Coefficient(grid32, rho, 0.5)

    def test_rejects_nonfinite_rho(self, grid32):
        rho = np.ones(grid32.shape)
        rho[3, 5] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Coefficient(grid32, rho, 0.5)

    def test_rejects_bad_m(self, grid32):
        with pytest.raises(ValueError):
            Coefficient(grid32, np.ones(grid32.shape), 1.5)

    def test_density_generators_respect_bounds(self, grid32):
        for rho in (checkerboard_density(grid32, 0.5), trig_density(grid32, 0.5, seed=2)):
            assert np.min(rho) >= 0.5 - 1e-12
            assert np.max(rho) <= 2.0 + 1e-12


class TestStepperConfig:
    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            StepperConfig(dt=0.0)


class TestTimeGrid:
    # the first three horizons are not a whole number of steps; the last two are the workloads'
    @pytest.mark.parametrize("T, dt", [(2.5, 1.0), (0.25, 0.1), (0.35, 0.1), (1.3, 0.05), (6.5, 0.05)])
    def test_nodes_at_most_dt_apart(self, T, dt):
        nodes = time_grid(T, dt)
        assert len(nodes) >= 3
        assert nodes[0] == 0.0 and nodes[-1] == T
        assert np.max(np.diff(nodes)) <= dt * (1.0 + 1e-12)

    # a node is exact only to an ulp of its time, so past a few thousand steps some
    # intervals come out a little over dt (by ~T/dt ulps of dt); each is still one step
    @pytest.mark.parametrize("T, dt", [(2.0, 1e-4), (10.0, 1e-3)])
    def test_long_grid_is_one_step_per_interval(self, params, monkeypatch, T, dt):
        import lamelab.varcoef as vc

        steps = []
        monkeypatch.setattr(vc, "theta_step", lambda grid, rho, params, u_old, dt, *a, **kw: steps.append(dt) or u_old)
        coef = Coefficient.constant(Grid(2, 8, 8.0), 1.0)
        t_grid = time_grid(T, dt)
        u0 = np.zeros((2,) + coef.grid.shape)
        samples = np.zeros((len(t_grid),) + u0.shape)
        evolve(coef, params, u0, t_grid, StepperConfig(dt=dt), forcing=samples, guess=samples)
        assert len(steps) == len(t_grid) - 1


def momentum_integral(coef: Coefficient, u: np.ndarray) -> np.ndarray:
    """int rho u dx, the quantity conserved by the unforced flow."""
    return integral(coef.grid, coef.rho * u)


class TestEvolve:
    def test_constant_density_matches_exact_semigroup(self, grid32, params):
        coef = Coefficient.constant(grid32, 1.0)
        u0 = random_band_field(grid32, 1, 4, seed=1, ncomp=2)
        traj = evolve(coef, params, u0, [0.0, 0.05, 0.2], StepperConfig(dt=5e-4))
        for i, t in enumerate((0.05, 0.2)):
            exact = const_semigroup(grid32, u0, t, params)
            err = lp_norm(grid32, traj[i + 1] - exact, 2) / lp_norm(grid32, exact, 2)
            assert err < 1e-6

    def test_zero_initial_state(self, rough16, params):
        u0 = np.zeros((2,) + rough16.grid.shape)
        traj = evolve(rough16, params, u0, [0.0, 0.1], StepperConfig(dt=1e-2))
        assert np.max(np.abs(traj)) == 0.0

    def test_constant_vector_is_equilibrium(self, rough16, params):
        u0 = np.ones((2,) + rough16.grid.shape)
        u0[1] = -0.5
        traj = evolve(rough16, params, u0, [0.0, 0.3], StepperConfig(dt=1e-2))
        assert np.max(np.abs(traj[-1] - u0)) < 1e-9

    def test_momentum_conserved(self, rough16, params):
        u0 = random_band_field(rough16.grid, 1, 3, seed=2, ncomp=2) + 0.3
        traj = evolve(rough16, params, u0, [0.0, 0.1, 0.4], StepperConfig(dt=5e-3))
        p0 = momentum_integral(rough16, u0)
        budget = 1e-8 * lp_norm(rough16.grid, u0, 1)
        for u in traj[1:]:
            assert np.max(np.abs(momentum_integral(rough16, u) - p0)) <= budget

    def test_second_order_in_dt(self, grid32, params):
        coef = Coefficient.constant(grid32, 1.0)
        u0 = random_band_field(grid32, 1, 4, seed=3, ncomp=2)
        t = 0.1
        exact = const_semigroup(grid32, u0, t, params)
        errs = []
        for dt in (2e-3, 1e-3):
            traj = evolve(coef, params, u0, [0.0, t], StepperConfig(dt=dt))
            errs.append(lp_norm(grid32, traj[-1] - exact, 2))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)

    def test_rejects_bad_time_grid(self, rough16, params):
        u0 = np.zeros((2,) + rough16.grid.shape)
        with pytest.raises(ValueError):
            evolve(rough16, params, u0, [0.1, 0.2], StepperConfig(dt=1e-2))

    def test_rejects_nonfinite_initial_state(self, rough16, params):
        u0 = np.zeros((2,) + rough16.grid.shape)
        u0[0, 2, 2] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            evolve(rough16, params, u0, [0.0, 0.1], StepperConfig(dt=1e-2))

    def test_rejects_nonfinite_forcing(self, rough16, params):
        u0 = np.zeros((2,) + rough16.grid.shape)
        forcing = np.zeros((2,) + u0.shape)
        forcing[1, 1, 4, 4] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            evolve(rough16, params, u0, [0.0, 0.01], StepperConfig(dt=1e-2), forcing=forcing)

    @staticmethod
    def _rows(fields):
        """fields as a sequence that only len() and integer indexing read, and that counts its reads."""

        class Rows:
            reads = [0] * len(fields)

            def __len__(self):
                return len(fields)

            def __getitem__(self, i):
                if not isinstance(i, int):
                    raise TypeError(f"rows are read one at a time, got {i!r}")
                self.reads[i] += 1
                return fields[i]

            def __array__(self, *args, **kwargs):
                raise TypeError("the sequence is never converted whole")

        return Rows()

    def test_sequence_forcing_matches_stacked(self, rough16, params):
        grid = rough16.grid
        t_grid = np.linspace(0.0, 0.1, 11)
        u0 = random_band_field(grid, 1, 3, seed=3, ncomp=2)
        prof, fx = random_time_profile(t_grid, 5), random_band_field(grid, 1, 3, seed=4, ncomp=2)
        cfg = StepperConfig(dt=1e-2)
        stack = prof.reshape((-1, 1, 1, 1)) * fx
        stacked = evolve(rough16, params, u0, t_grid, cfg, forcing=stack)
        factored = evolve(rough16, params, u0, t_grid, cfg, forcing=(phi * fx for phi in prof))
        assert factored.tobytes() == stacked.tobytes()  # solve_linear_maxreg's rows
        generated = evolve(rough16, params, u0, t_grid, cfg, forcing=(row.copy() for row in stack))
        assert generated.tobytes() == stacked.tobytes()
        rows = self._rows(stack)
        assert evolve(rough16, params, u0, t_grid, cfg, forcing=rows).tobytes() == stacked.tobytes()
        assert rows.reads == [1] * len(t_grid)  # checked as the steps reach it, and read no more

    def test_rejects_bad_forcing_rows(self, rough16, params):
        u0 = np.zeros((2,) + rough16.grid.shape)
        cfg, t_grid = StepperConfig(dt=1e-2), [0.0, 0.01, 0.02]
        shape_error = "forcing must be sampled on t_grid with u0's field shape"
        bad = np.full(u0.shape, np.nan)
        cases = {
            shape_error: [[u0, u0], [u0, u0, u0[0]], [u0, u0, u0, u0]],  # too few, a bad shape, too many
            "forcing contains non-finite samples": [[u0, u0, bad], [bad, u0, u0[0]]],  # each row as it is read
        }
        for message, sequences in cases.items():
            for rows in sequences:
                with pytest.raises(ValueError, match=message):
                    evolve(rough16, params, u0, t_grid, cfg, forcing=self._rows(rows))
                with pytest.raises(ValueError, match=message):
                    evolve(rough16, params, u0, t_grid, cfg, forcing=(row for row in rows))

    @pytest.mark.parametrize("given", ["forcing", "guess"])
    def test_samples_need_one_step_per_interval(self, rough16, params, given):
        # forcing and guess are read at the nodes, so no step may end between two
        u0 = np.zeros((2,) + rough16.grid.shape)
        samples = {given: np.zeros((2,) + u0.shape)}
        with pytest.raises(ValueError, match="at most dt"):
            evolve(rough16, params, u0, [0.0, 0.1], StepperConfig(dt=1e-2), **samples)

    def test_warm_start_matches_cold_start(self, rough16, params):
        # a guess changes only where CG starts, so the runs agree to the CG
        # tolerance times the preconditioned condition number (<= 1/m^4) per step
        u0 = random_band_field(rough16.grid, 1, 3, seed=12, ncomp=2)
        t_grid = np.linspace(0.0, 0.2, 21)
        cfg = StepperConfig(dt=1e-2, cg_tol=1e-10)
        cold = evolve(rough16, params, u0, t_grid, cfg)
        noise = 1e-2 * random_band_field(rough16.grid, 1, 6, seed=13, ncomp=2)
        warm = evolve(rough16, params, u0, t_grid, cfg, guess=cold + noise)
        rel = np.max(np.abs(warm - cold)) / np.max(np.abs(cold))
        steps = round(t_grid[-1] / cfg.dt)
        assert 0.0 < rel <= steps * cfg.cg_tol / rough16.m**4

    def test_cg_failure_raises_with_residual(self, rough16, params, monkeypatch):
        import lamelab.varcoef as vc

        u0 = random_band_field(rough16.grid, 1, 3, seed=4, ncomp=2)
        monkeypatch.setattr(vc, "_CG_MAXITER", 1)
        cfg = StepperConfig(dt=1e-2, cg_tol=1e-14)
        with pytest.raises(SolverConvergenceError) as err:
            evolve(rough16, params, u0, [0.0, 0.1], cfg)
        assert err.value.residual > 0
        # the first step stalls, and the error says where
        assert err.value.step == 1
        assert err.value.time == pytest.approx(0.01)
        assert "step 1 (t = 0.01)" in str(err.value)

    def test_forcing_reaches_steady_state(self, grid32, params):
        # with f = -L w held fixed, u relaxes toward w, which is an exact
        # fixed point of the theta scheme; slowest rate here is mu (2pi k/L)^2
        coef = Coefficient.constant(grid32, 1.0)
        from lamelab.operators import lame_apply

        w = random_band_field(grid32, 2, 3, seed=5, ncomp=2)
        f = -lame_apply(grid32, w, params)
        t_grid = np.linspace(0.0, 16.0, 161)
        forcing = np.broadcast_to(f, (161,) + f.shape).copy()
        traj = evolve(coef, params, np.zeros_like(w), t_grid, StepperConfig(dt=0.1), forcing=forcing)
        rel = lp_norm(grid32, traj[-1] - w, 2) / lp_norm(grid32, w, 2)
        assert rel < 1e-3


class TestPredictor:
    """Each step's CG starts from a Lagrange extrapolation in time of the last
    states (evolve's docstring)."""

    @staticmethod
    def _starts(monkeypatch, coef, params, u_of_t, t_grid, dt):
        """Run evolve with theta_step replaced by u_of_t at the step's new time;
        returns each step's CG starting point and u_of_t at that time."""
        import lamelab.varcoef as vc

        starts, clock = [], [0.0]

        def exact_step(grid, rho, params, u, dt, cfg, precond, f_bar=None, u_guess=None):
            clock[0] += dt
            starts.append((u_guess, u_of_t(clock[0])))
            return u_of_t(clock[0])

        monkeypatch.setattr(vc, "theta_step", exact_step)
        evolve(coef, params, u_of_t(0.0), t_grid, StepperConfig(dt=dt))
        return starts

    @pytest.mark.parametrize("uneven", [False, True], ids=["uniform", "geometric"])
    def test_cubic_trajectory_is_reproduced(self, rough16, params, monkeypatch, uneven):
        grid = rough16.grid
        c = [rng_field(grid, 60 + k, ncomp=2) for k in range(4)]
        if uneven:  # geometric nodes over six decades, 8 uniform steps in [0, t_0] and in each interval
            nodes = extended_time_nodes(grid, params, above=4.0)
            pieces = [np.linspace(0.0, nodes[0], 9)] + [np.linspace(a, b, 9)[1:] for a, b in zip(nodes[:-1], nodes[1:])]
            t_grid = np.concatenate(pieces)
            dt = float(np.max(np.diff(t_grid)))
        else:
            t_grid, dt = [0.0, 0.35, 1.0], 0.05
        T = float(t_grid[-1])

        def cubic(t):  # in t / T, so that no power of t dominates
            return c[0] + (t / T) * c[1] + (t / T) ** 2 * c[2] + (t / T) ** 3 * c[3]

        starts = self._starts(monkeypatch, rough16, params, cubic, t_grid, dt)
        assert len(starts) > 10
        assert np.array_equal(starts[0][0], cubic(0.0))  # the first step starts from u0
        for guess, exact in starts[3:]:  # from four states on, the cubic is exact
            assert np.max(np.abs(guess - exact)) <= 1e-12 * np.max(np.abs(exact))

    def test_predictor_cuts_iterations(self, monkeypatch):
        # one maxreg probe of the probes benchmark config (seed 300, N = 32)
        import lamelab.varcoef as vc
        from lamelab.scenarios import parse_maxreg

        cfg = {
            "grid": {"dim": 2, "N": 32, "extent": 16.0},
            "lame": {"mu": 1.0, "lambda": 1.0},
            "rho0": {"kind": "checkerboard", "m": 0.5, "cells": 2, "sharpness": 2.0},
            "stepper": {"dt": 0.01},
            "T": 1.0,
            "probes": {"count": 1, "seed": 300},
        }
        run = parse_maxreg(cfg, 0)
        coef, params, stepper, base = run["coef"], run["params"], run["stepper"], run["base"]
        grid = coef.grid
        t_grid = time_grid(run["T"], stepper.dt)
        u0 = random_band_field(grid, *run["band"], base, ncomp=2)
        fx = random_band_field(grid, *run["band"], base + 1, ncomp=2)
        forcing = random_time_profile(t_grid, base)[:, None, None, None] * fx

        pcg, iterations = vc._pcg, []

        def counted_pcg(*args):
            x, it = pcg(*args)
            iterations.append(it)
            return x, it

        monkeypatch.setattr(vc, "_pcg", counted_pcg)
        totals = []
        for order in (0, vc._PREDICTOR_ORDER):  # order 0: each step starts from the previous state
            monkeypatch.setattr(vc, "_PREDICTOR_ORDER", order)
            iterations.clear()
            evolve(coef, params, u0, t_grid, stepper, forcing=forcing)
            totals.append(sum(iterations))
        assert totals[1] <= 0.7 * totals[0]


def weighted_norm(coef: Coefficient, u: np.ndarray) -> float:
    """rho-weighted L2 norm sqrt(h^n sum rho |u|^2)."""
    grid = coef.grid
    mag2 = np.sum(np.asarray(u) ** 2, axis=tuple(range(u.ndim - grid.dim)))
    return float(np.sqrt(grid.cell_volume * np.sum(coef.rho * mag2)))


@dataclass(frozen=True)
class DissipationReport:
    times: tuple
    norms: tuple
    monotone: bool
    max_uptick: float


def energy_dissipation_check(
    coef: Coefficient, params: LameParams, trajectory: np.ndarray, t_grid
) -> DissipationReport:
    """Check that the rho-weighted norm of an unforced run never increases."""
    norms = np.array([weighted_norm(coef, u) for u in trajectory])
    scale = max(norms[0], 1e-300)
    upticks = np.diff(norms) / scale
    max_uptick = float(np.max(upticks)) if len(upticks) else 0.0
    return DissipationReport(tuple(np.asarray(t_grid)), tuple(norms), bool(max_uptick <= 1e-10), max_uptick)


class TestDissipation:
    def test_single_mode_exact_rate(self, grid32, params):
        # divergence-free mode decays at exp(-mu |xi|^2 t) in the rho = 1 norm
        coef = Coefficient.constant(grid32, 1.0)
        xi = 2 * np.pi * np.array([1.0, 0.0]) / grid32.extent
        u0 = np.stack([np.zeros(grid32.shape), plane_wave(grid32, (1, 0))])
        t_grid = [0.0, 0.5, 1.0]
        traj = evolve(coef, params, u0, t_grid, StepperConfig(dt=2e-3))
        rep = energy_dissipation_check(coef, params, traj, t_grid)
        for t, norm in zip(rep.times, rep.norms):
            expected = np.exp(-params.mu * np.dot(xi, xi) * t) * rep.norms[0]
            assert norm == pytest.approx(expected, rel=1e-5)

    def test_rough_density_monotone(self, rough16, params):
        u0 = random_band_field(rough16.grid, 1, 3, seed=6, ncomp=2)
        t_grid = np.linspace(0.0, 0.5, 11)
        traj = evolve(rough16, params, u0, t_grid, StepperConfig(dt=5e-3))
        rep = energy_dissipation_check(rough16, params, traj, t_grid)
        assert rep.monotone, f"uptick {rep.max_uptick}"

    def test_equilibrium_norm_constant(self, rough16, params):
        u0 = np.ones((2,) + rough16.grid.shape)
        t_grid = [0.0, 0.2, 0.4]
        traj = evolve(rough16, params, u0, t_grid, StepperConfig(dt=1e-2))
        rep = energy_dissipation_check(rough16, params, traj, t_grid)
        assert rep.norms[-1] == pytest.approx(rep.norms[0], rel=1e-9)


class TestDenseOracle:
    def test_t_zero_identity(self, rough16, params):
        u0 = random_band_field(rough16.grid, 1, 3, seed=7, ncomp=2)
        out = (next(dense_semigroup_matrices(rough16, params, [0.0])) @ u0.ravel()).reshape(u0.shape)
        assert np.max(np.abs(out - u0)) < 1e-12

    def test_weighted_symmetry(self, rough16, params):
        # e^{t b L} times multiplication by b is symmetric
        grid = rough16.grid
        mat = next(dense_semigroup_matrices(rough16, params, [0.1]))
        bdiag = np.broadcast_to(rough16.b, (grid.dim,) + grid.shape).ravel()
        sym = mat * bdiag[None, :]
        assert np.max(np.abs(sym - sym.T)) / np.max(np.abs(sym)) < 1e-10

    def test_constant_density_against_spectral(self, params):
        # at rho = 1 the oracle exponentiates the very symbol const_semigroup applies, also on
        # white noise, which fills the Nyquist-mixed modes where xi~ and N are distinct eigenvectors
        cases = []
        for n in (16, 32):
            grid = Grid(2, n, 8.0)
            cases.append((grid, random_band_field(grid, 1, 2, seed=8, ncomp=2), params))
        for dim, n in ((2, 16), (3, 8)):
            grid = Grid(dim, n, 8.0)
            cases += [(grid, rng_field(grid, 40 + dim, ncomp=dim), LameParams(1.0, lam)) for lam in (1.5, -1.5)]
        t = 0.1
        for grid, u0, gen in cases:
            coef = Coefficient.constant(grid, 1.0)
            oracle = (next(dense_semigroup_matrices(coef, gen, [t])) @ u0.ravel()).reshape(u0.shape)
            exact = const_semigroup(grid, u0, t, gen)
            assert lp_norm(grid, oracle - exact, 2) / lp_norm(grid, exact, 2) <= 1e-12

    @pytest.mark.parametrize("dim, n, lam", [(2, 16, 1.0), (3, 8, -0.5)])
    def test_lame_matrix_symmetric(self, dim, n, lam):
        # dense_semigroup_matrices symmetrizes before eigh, which would hide an asymmetric operator
        mat = dense_lame_matrix(Grid(dim, n, 8.0), LameParams(1.0, lam))
        assert np.max(np.abs(mat - mat.T)) <= 1e-13 * np.max(np.abs(mat))

    def test_evolve_agrees_with_oracle(self, rough16, params):
        u0 = random_band_field(rough16.grid, 1, 3, seed=9, ncomp=2)
        cfg = StepperConfig(dt=1e-3)
        traj = evolve(rough16, params, u0, [0.0, 0.05], cfg)
        oracle = (next(dense_semigroup_matrices(rough16, params, [0.05])) @ u0.ravel()).reshape(u0.shape)
        rel = lp_norm(rough16.grid, traj[-1] - oracle, 2) / lp_norm(rough16.grid, oracle, 2)
        assert rel < 1e-4

    def test_times_share_one_decomposition(self, rough16, params):
        # the matrices of a list of times are those of each time alone
        times = (0.05, 0.0, 0.2)
        for t, mat in zip(times, dense_semigroup_matrices(rough16, params, times)):
            assert np.array_equal(mat, next(dense_semigroup_matrices(rough16, params, [t])))
        with pytest.raises(ValueError):
            dense_semigroup_matrices(rough16, params, [0.1, -0.1])

    def test_rejects_oversize_grid(self, params):
        grid = Grid(2, 64, 8.0)
        coef = Coefficient.constant(grid, 1.0)
        with pytest.raises(ValueError):
            dense_semigroup_matrices(coef, params, [0.1])

    def test_dissipation_expm_norm_nonincreasing(self, rough16, params):
        u0 = random_band_field(rough16.grid, 1, 3, seed=10, ncomp=2)
        mats = dense_semigroup_matrices(rough16, params, (0.0, 0.1, 0.3))
        norms = [weighted_norm(rough16, (mat @ u0.ravel()).reshape(u0.shape)) for mat in mats]
        assert norms[0] >= norms[1] >= norms[2]


class TestSemigroup:
    """The unforced semigroup by rational Krylov, on criterion 2's grid and density."""

    @staticmethod
    def _x(grid):  # a band field plus a constant, which the semigroup carries exactly
        return random_band_field(grid, 1, 3, seed=2, ncomp=2) + np.array([0.3, -0.7])[:, None, None]

    @pytest.mark.parametrize("extended", [False, True], ids=["oracle_times", "extended_nodes"])
    def test_matches_dense_oracle(self, rough16, params, extended):
        grid = rough16.grid
        x = self._x(grid)
        times = extended_time_nodes(grid, params, above=4.0) if extended else (0.05, 0.2)
        out = semigroup(rough16, params, x, times)
        assert out.shape == (len(times),) + x.shape
        for u, mat in zip(out, dense_semigroup_matrices(rough16, params, times)):
            oracle = (mat @ x.ravel()).reshape(x.shape)
            assert lp_norm(grid, u - oracle, 2) <= 1e-7 * lp_norm(grid, oracle, 2)

    def test_momentum_conserved(self, rough16, params):
        grid = rough16.grid
        x = self._x(grid)
        times = extended_time_nodes(grid, params, above=4.0)
        drift = [momentum_integral(rough16, u) - momentum_integral(rough16, x) for u in semigroup(rough16, params, x, times)]
        assert np.max(np.abs(drift)) <= 1e-9

    def test_constant_field_unchanged(self, rough16, params):
        x = np.ones((2,) + rough16.grid.shape) * np.array([0.3, -1.7])[:, None, None]
        for u in semigroup(rough16, params, x, [0.0, 0.05, 1e3]):
            assert np.max(np.abs(u - x)) <= 1e-15

    def test_time_zero_is_identity(self, rough16, params):
        x = self._x(rough16.grid)
        out = semigroup(rough16, params, x, [0.0, 0.1])
        assert np.max(np.abs(out[0] - x)) <= 1e-12 * np.max(np.abs(x))

    def test_rejects_bad_input(self, rough16, params):
        x = self._x(rough16.grid)
        for times in ([0.1, -0.1], [np.nan]):
            with pytest.raises(ValueError, match="times"):
                semigroup(rough16, params, x, times)
        with pytest.raises(ValueError, match="non-finite"):
            semigroup(rough16, params, np.full_like(x, np.inf), [0.1])

    def test_unconverged_basis_raises(self, rough16, params, monkeypatch):
        import lamelab.varcoef as vc

        monkeypatch.setattr(vc, "_KRYLOV_MAXDIM", 3)
        with pytest.raises(SolverConvergenceError, match="unconverged at 3 vectors"):
            semigroup(rough16, params, self._x(rough16.grid), [0.05, 0.2])

    def test_stalled_solve_names_its_vector(self, rough16, params, monkeypatch):
        import lamelab.varcoef as vc

        monkeypatch.setattr(vc, "_CG_MAXITER", 1)
        with pytest.raises(SolverConvergenceError, match="Krylov vector 2 .pole 0.025.: CG stalled") as err:
            semigroup(rough16, params, self._x(rough16.grid), [0.05, 0.2])
        assert err.value.residual > 0 and err.value.step is None


def allocating_pcg(matvec, psolve, remainder, b, x, rtol, maxiter):
    """Textbook form of _pcg, each update a new array: the bitwise reference."""
    atol = rtol * np.sqrt(np.sum(b * b))
    if atol == 0.0:
        return np.zeros_like(b), 0
    r = b - matvec(x) if x.any() else b.copy()
    rz_prev = p = w = None
    for it in range(maxiter):
        if np.sqrt(np.sum(r * r)) < atol:
            return x, it
        z = psolve(r)
        rz = np.sum(r * z)
        if p is None:
            p, w = z, r.copy()
        else:
            beta = rz / rz_prev
            p = z + beta * p
            w = r + beta * w
        q = w + remainder(p)
        alpha = rz / np.sum(p * q)
        x += alpha * p
        r -= alpha * q
        rz_prev = rz
    return x, None


@pytest.fixture(scope="module")
def rough8_3d():
    grid = Grid(3, 8, 8.0)
    return Coefficient(grid, trig_density(grid, 0.5, seed=4), 0.5)


class TestPCG:
    @staticmethod
    def _system(coef, params, dt=1e-2):
        grid, rho = coef.grid, coef.rho
        a = float(np.mean(rho)) / dt

        def matvec(u):
            return rho * u / dt - 0.5 * lame_apply(grid, u, params)

        def remainder(u):
            return (rho / dt - a) * u

        return matvec, _preconditioner(grid, params, a)[1], remainder

    def test_iterations_match_scipy_cg(self, rough16, params):
        import scipy.sparse.linalg as sla

        matvec, psolve, remainder = self._system(rough16, params)
        grid = rough16.grid
        b = random_band_field(grid, 1, 6, seed=14, ncomp=2)
        x0 = random_band_field(grid, 1, 3, seed=15, ncomp=2)
        x, iterations = _pcg(matvec, psolve, remainder, b, x0.copy(), 1e-10, 500)

        shape, ndof = b.shape, b.size
        lin = sla.LinearOperator((ndof, ndof), matvec=lambda v: matvec(v.reshape(shape)).ravel(), dtype=float)
        pre = sla.LinearOperator((ndof, ndof), matvec=lambda v: psolve(v.reshape(shape)).ravel(), dtype=float)
        steps = []
        x_ref, info = sla.cg(
            lin, b.ravel(), x0=x0.ravel(), rtol=1e-10, atol=0.0, maxiter=500, M=pre, callback=steps.append
        )
        assert info == 0
        assert iterations == len(steps) > 3
        assert np.max(np.abs(x.ravel() - x_ref)) <= 1e-12 * np.max(np.abs(x_ref))

    @pytest.mark.parametrize("case", ["rough16", "rough8_3d"])
    @pytest.mark.parametrize("zero_guess", [True, False])
    def test_matches_allocating_reference(self, case, zero_guess, params, request):
        # in-place updates through one scratch vector keep every bit and the iteration count
        coef = request.getfixturevalue(case)
        grid = coef.grid
        matvec, psolve, remainder = self._system(coef, params)
        b = random_band_field(grid, 1, 3, seed=20, ncomp=grid.dim)
        x0 = np.zeros_like(b) if zero_guess else random_band_field(grid, 1, 2, seed=21, ncomp=grid.dim)
        x, iterations = _pcg(matvec, psolve, remainder, b, x0.copy(), 1e-10, 500)
        x_ref, iterations_ref = allocating_pcg(matvec, psolve, remainder, b, x0.copy(), 1e-10, 500)
        assert iterations == iterations_ref > 3
        assert np.array_equal(x, x_ref)

    @pytest.mark.parametrize("case", ["rough16", "rough8_3d"])
    def test_preconditioner_matches_dense_sum(self, case, params, request):
        # the term-by-term accumulation keeps the bits of the summed dense product
        grid = request.getfixturevalue(case).grid
        a = 37.5
        inv = _symbol_matrix(grid, params, lambda z: 1.0 / (a + 0.5 * z))
        r = np.random.default_rng(22).standard_normal((grid.dim,) + grid.shape)
        ref = ifftn(grid, np.sum(inv * fftn(grid, r)[None], axis=1))
        assert np.array_equal(_preconditioner(grid, params, a)[1](r), ref)

    def test_zero_rhs_returns_zeros(self, rough16, params):
        matvec, psolve, remainder = self._system(rough16, params)
        guess = random_band_field(rough16.grid, 1, 3, seed=16, ncomp=2)
        x, iterations = _pcg(matvec, psolve, remainder, np.zeros_like(guess), guess, 1e-10, 500)
        assert iterations == 0
        assert not np.any(x)

    def test_step_applies_operator_twice(self, rough16, params, monkeypatch):
        # the right-hand side and the initial residual; CG iterations apply none
        import lamelab.varcoef as vc

        calls, iterations = [], []
        lame, pcg = vc.lame_apply, vc._pcg

        def counted_lame(*args):
            calls.append(1)
            return lame(*args)

        def counted_pcg(*args):
            x, it = pcg(*args)
            iterations.append(it)
            return x, it

        monkeypatch.setattr(vc, "lame_apply", counted_lame)
        monkeypatch.setattr(vc, "_pcg", counted_pcg)
        u = random_band_field(rough16.grid, 1, 6, seed=17, ncomp=2)
        precond = _preconditioner(rough16.grid, params, float(np.mean(rough16.rho)) / 1e-2)
        theta_step(rough16.grid, rough16.rho, params, u, 1e-2, 1e-10, precond)
        assert iterations[0] > 2
        assert len(calls) <= 2

    def test_evolve_builds_preconditioner_once(self, rough16, params, monkeypatch):
        import lamelab.varcoef as vc

        builds, dts, step = record_builds(monkeypatch, vc), set(), vc.theta_step

        def recording(grid, rho, params, u_old, dt, *args, **kwargs):
            dts.add(dt)
            return step(grid, rho, params, u_old, dt, *args, **kwargs)

        monkeypatch.setattr(vc, "theta_step", recording)
        u0 = random_band_field(rough16.grid, 1, 3, seed=19, ncomp=2)
        # the steps of a linspace differ in their last bits, and share one inverse symbol
        evolve(rough16, params, u0, time_grid(2.0, 0.01), StepperConfig(dt=0.01))
        assert len(dts) > 1
        assert len(builds) == 1
        # a short last interval is a step size of its own
        builds.clear()
        evolve(rough16, params, u0, [0.0, 0.1, 0.125], StepperConfig(dt=0.01))
        assert len(builds) == 2

    def test_step_matches_dense_solve(self, params):
        grid = Grid(2, 8, 8.0)
        rho = trig_density(grid, 0.5, seed=5)
        u = random_band_field(grid, 1, 3, seed=18, ncomp=2)
        dt, theta = 0.1, 0.5
        lame = dense_lame_matrix(grid, params)
        rho_v = np.broadcast_to(rho, u.shape).ravel()
        mat = np.diag(rho_v / dt) - theta * lame
        rhs = rho_v * u.ravel() / dt + (1.0 - theta) * lame @ u.ravel()
        ref = np.linalg.solve(mat, rhs).reshape(u.shape)
        x = theta_step(grid, rho, params, u, dt, 1e-13, _preconditioner(grid, params, float(np.mean(rho)) / dt))
        assert np.max(np.abs(x - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_steps_do_not_depend_on_blas_threads(self):
        # reductions on N = 128 fields (32k entries) go to multithreaded BLAS if
        # they go to BLAS at all, and its summation order follows its thread count
        code = (
            "import hashlib\n"
            "import numpy as np\n"
            "from lamelab.fields import random_band_field, trig_density\n"
            "from lamelab.grid import Grid\n"
            "from lamelab.operators import LameParams\n"
            "from lamelab.varcoef import _preconditioner, theta_step\n"
            "grid = Grid(2, 128, 16.0)\n"
            "rho = trig_density(grid, 0.5, 17, 2.0, 1.5)\n"
            "u = random_band_field(grid, 1, 6, seed=3, ncomp=2)\n"
            "precond = _preconditioner(grid, LameParams(1.0, 1.0), float(np.mean(rho)) / 5e-3)\n"
            "for _ in range(3):\n"
            "    u = theta_step(grid, rho, LameParams(1.0, 1.0), u, 5e-3, 1e-10, precond)\n"
            "print(hashlib.sha256(u.tobytes()).hexdigest())\n"
        )
        digests = set()
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
            assert out.returncode == 0, out.stderr
            digests.add(out.stdout.strip())
        assert len(digests) == 1


class TestPreconditionerLifetime:
    """A solve builds the preconditioner of each of its step sizes once (the
    evolve case is TestPCG's) and drops it when it returns (module docstring)."""

    def test_none_outlives_evolve(self, rough16, params, monkeypatch):
        import lamelab.varcoef as vc

        builds = record_builds(monkeypatch, vc)
        u0 = random_band_field(rough16.grid, 1, 3, seed=19, ncomp=2)
        evolve(rough16, params, u0, [0.0, 0.1, 0.125], StepperConfig(dt=0.01))
        gc.collect()
        assert len(builds) == 2
        assert all(psolve() is None for _, psolve in builds)

    def test_semigroup_builds_one_per_pole(self, rough16, params, monkeypatch):
        import lamelab.varcoef as vc

        builds = record_builds(monkeypatch, vc)
        x = random_band_field(rough16.grid, 1, 4, seed=5, ncomp=2)
        semigroup(rough16, params, x, [0.01, 0.1, 1.0])  # three poles, each used by several Krylov vectors
        gc.collect()
        assert len({a for a, _ in builds}) == len(builds) == 3
        assert all(psolve() is None for _, psolve in builds)
