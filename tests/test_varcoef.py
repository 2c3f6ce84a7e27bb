import os
import subprocess
import sys

from dataclasses import dataclass

import numpy as np
import pytest

from lamelab.besov import extended_time_nodes
from lamelab.fields import checkerboard_density, random_band_field, random_time_profile, trig_density
from lamelab.grid import Grid, integral, lp_norm
from lamelab.maxreg import refine_time_grid, time_grid
from lamelab.operators import LameParams, const_semigroup, lame_apply
from lamelab.varcoef import (
    Coefficient,
    SolverConvergenceError,
    StepperConfig,
    dense_lame_matrix,
    dense_semigroup_matrices,
    _pcg,
    _preconditioner,
    evolve,
    theta_step,
)

from conftest import plane_wave, rng_field


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
            evolve(rough16, params, u0, [0.0, 0.1], StepperConfig(dt=1e-2), forcing=forcing)

    def test_warm_start_matches_cold_start(self, rough16, params):
        # a guess changes only where CG starts, so the runs agree to the CG
        # tolerance times the preconditioned condition number (<= 1/m^4) per step
        u0 = random_band_field(rough16.grid, 1, 3, seed=12, ncomp=2)
        t_grid = np.linspace(0.0, 0.2, 11)
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
        t_grid = np.linspace(0.0, 16.0, 65)
        forcing = np.broadcast_to(f, (65,) + f.shape).copy()
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

        def exact_step(grid, rho, params, u, dt, cfg, f_bar=None, u_guess=None):
            clock[0] += dt
            starts.append((u_guess, u_of_t(clock[0])))
            return u_of_t(clock[0])

        monkeypatch.setattr(vc, "theta_step", exact_step)
        evolve(coef, params, u_of_t(0.0), t_grid, StepperConfig(dt=dt))
        return starts

    @pytest.mark.parametrize("uneven", [False, True], ids=["uniform", "norm_equiv"])
    def test_cubic_trajectory_is_reproduced(self, rough16, params, monkeypatch, uneven):
        grid = rough16.grid
        c = [rng_field(grid, 60 + k, ncomp=2) for k in range(4)]
        if uneven:  # the step times of norm_equiv_ratio: one step per refined interval
            t_grid = refine_time_grid(extended_time_nodes(grid, params, above=4.0), 8)
            dt = float(t_grid[-1])
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
            evolve(coef, params, u0, t_grid, stepper.with_dt(t_grid[1]), forcing=forcing)
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


class TestPCG:
    @staticmethod
    def _system(coef, params, dt=1e-2):
        grid, rho = coef.grid, coef.rho
        a = float(np.mean(rho)) / dt

        def matvec(u):
            return rho * u / dt - 0.5 * lame_apply(grid, u, params)

        def remainder(u):
            return (rho / dt - a) * u

        return matvec, _preconditioner(grid, params, a), remainder

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
        theta_step(rough16.grid, rough16.rho, params, u, 1e-2, 1e-10)
        assert iterations[0] > 2
        assert len(calls) <= 2

    def test_evolve_builds_preconditioner_once(self, rough16, params, monkeypatch):
        # uniform steps share one a = mean(rho)/dt, so every step reuses one inverse symbol
        import lamelab.varcoef as vc

        builds, symbol = [], vc._symbol_matrix

        def counted_symbol(*args):
            builds.append(1)
            return symbol(*args)

        monkeypatch.setattr(vc, "_symbol_matrix", counted_symbol)
        vc._preconditioner.cache_clear()
        u0 = random_band_field(rough16.grid, 1, 3, seed=19, ncomp=2)
        evolve(rough16, params, u0, [0.0, 0.1], StepperConfig(dt=1e-2))
        assert len(builds) == 1

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
        x = theta_step(grid, rho, params, u, dt, 1e-13)
        assert np.max(np.abs(x - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_steps_do_not_depend_on_blas_threads(self):
        # reductions on N = 128 fields (32k entries) go to multithreaded BLAS if
        # they go to BLAS at all, and its summation order follows its thread count
        code = (
            "import hashlib\n"
            "from lamelab.fields import random_band_field, trig_density\n"
            "from lamelab.grid import Grid\n"
            "from lamelab.operators import LameParams\n"
            "from lamelab.varcoef import theta_step\n"
            "grid = Grid(2, 128, 16.0)\n"
            "rho = trig_density(grid, 0.5, 17, 2.0, 1.5)\n"
            "u = random_band_field(grid, 1, 6, seed=3, ncomp=2)\n"
            "for _ in range(3):\n"
            "    u = theta_step(grid, rho, LameParams(1.0, 1.0), u, 5e-3, 1e-10)\n"
            "print(hashlib.sha256(u.tobytes()).hexdigest())\n"
        )
        digests = set()
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
            assert out.returncode == 0, out.stderr
            digests.add(out.stdout.strip())
        assert len(digests) == 1
