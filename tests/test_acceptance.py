"""Acceptance gate: every release criterion at its stated tolerance.

Each check prints one [PASS]/[FAIL] line (run with -s to stream them).
Scenarios are deterministic: fixed seeds, fixed grids, fixed steppers.
"""

import copy
import time

import numpy as np
import pytest

from lamelab.besov import (
    BesovIndex,
    DyadicPartition,
    besov_norm_report,
    heat_char_weighting,
    heat_profile,
)
from lamelab.fields import checkerboard_density, random_band_field, random_time_profile, trig_density
from lamelab.grid import Grid, lp_norm
from lamelab.kernels import (
    conservation_defect,
    gaussian_fit,
    gradient_envelope,
    kernel_column,
    symmetry_defect,
)
from lamelab.lagrangian import (
    LagrangianState,
    eulerian_reference_solve,
    flow_diagnostics,
    flow_nodes,
    nonlinearity_f,
    picard_solve,
)
from lamelab.maxreg import norm_equiv_ratio, solve_linear_maxreg
from lamelab.operators import LameParams, ScaledLaplacian
from lamelab.scenarios import build_grid, build_lame, build_picard, build_rho0, build_u0
from lamelab.varcoef import Coefficient, StepperConfig, dense_semigroup_matrices, evolve, time_grid

from test_kernels import holder_quotient, synth_lame_kernel


# The standard small-data flow scenario, the README's flow example: rough
# plateaued density at m = 1/2, a band-limited initial velocity at the certified
# amplitude, horizon equal to four viscous times of the lowest mode.
DEFAULT_FLOW_SCENARIO = {
    "grid": {"dim": 2, "N": 128, "extent": 8.0},
    "lame": {"mu": 1.0, "lambda": 1.0},
    # sharpness 2 keeps the full [m, 1/m] swing while the transition layer
    # stays a few cells wide at N = 128, so composition checks resolve it
    "rho0": {"kind": "checkerboard", "m": 0.5, "cells": 2, "sharpness": 2.0},
    "u0": {"kind": "band", "kmin": 1.0, "kmax": 3.0, "seed": 7, "amplitude": 0.05},
    "picard": {"T": 6.5, "dt": 0.05, "max_iters": 25, "tol": 1e-8},
}


def check(label: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


# -- shared expensive artifacts ---------------------------------------------------


@pytest.fixture(scope="module")
def envelope_slices():
    """Rough-density kernel columns for criteria 3-5: pinned desk scenario."""
    grid = Grid(2, 128, 8.0)
    coef = Coefficient(grid, trig_density(grid, 0.5, seed=17, kmax=2.0, gain=1.5), 0.5)
    params = LameParams(1.0, 1.0)
    slices = kernel_column(
        coef, params, (64, 64), [0.05, 0.1, 0.2], StepperConfig(dt=1e-3), presmooth=True
    )
    return coef, params, slices


@pytest.fixture(scope="module")
def standard_run():
    """Criteria 9-10: the standard small-data scenario at N = 128."""
    cfg = copy.deepcopy(DEFAULT_FLOW_SCENARIO)
    grid = build_grid(cfg["grid"])
    params = build_lame(cfg["lame"])
    rho0 = build_rho0(grid, cfg["rho0"])
    T, pcfg = build_picard(cfg["picard"])
    u0 = build_u0(grid, cfg["u0"], pcfg.p)
    t0 = time.time()
    state, diag = picard_solve(rho0, params, u0, T, pcfg)
    report = flow_diagnostics(state, pcfg.p)
    elapsed = time.time() - t0
    return {
        "grid": grid,
        "params": params,
        "rho0": rho0,
        "u0": u0,
        "T": T,
        "pcfg": pcfg,
        "state": state,
        "diag": diag,
        "report": report,
        "elapsed": elapsed,
    }


# -- criteria ----------------------------------------------------------------------


def test_criterion_1_constant_coefficient_kernel_exactness():
    grid = Grid(2, 128, 16.0)
    coef = Coefficient.constant(grid, 1.0)
    params = LameParams(1.0, 1.0)
    t = 0.1
    t0 = time.time()
    slices = kernel_column(coef, params, (64, 64), [t], StepperConfig(dt=3e-4))
    elapsed = time.time() - t0
    ref = synth_lame_kernel(grid, params, (64, 64), t + slices[0].presmooth_t)
    err = float(np.max(np.abs(slices[0].kernel - ref)) / np.max(np.abs(ref)))
    check(
        "criterion 1 (constant-coefficient kernel exactness)",
        err <= 1e-5 and elapsed <= 30.0,
        f"rel max-norm error {err:.2e} (<= 1e-5), runtime {elapsed:.1f}s (<= 30s)",
    )


def test_criterion_2_dense_oracle_equivalence():
    grid = Grid(2, 16, 8.0)
    coef = Coefficient(grid, checkerboard_density(grid, 0.5), 0.5)
    params = LameParams(1.0, 1.0)
    u0 = random_band_field(grid, 1, 3, seed=2, ncomp=2)
    cfg = StepperConfig(dt=1e-4)
    traj = evolve(coef, params, u0, [0.0, 0.05, 0.2], cfg)
    errs = []
    syms = []
    for i, mat in enumerate(dense_semigroup_matrices(coef, params, (0.05, 0.2))):
        oracle = (mat @ u0.ravel()).reshape(u0.shape)
        errs.append(lp_norm(grid, traj[i + 1] - oracle, 2) / lp_norm(grid, oracle, 2))
        bmat = mat * np.broadcast_to(coef.b, (2,) + grid.shape).ravel()[None, :]
        syms.append(float(np.max(np.abs(bmat - bmat.T)) / np.max(np.abs(bmat))))
    check(
        "criterion 2 (dense-oracle equivalence)",
        max(errs) <= 1e-4 and max(syms) <= 1e-10,
        f"max rel L2 {max(errs):.2e} (<= 1e-4), symmetry defect {max(syms):.2e} (<= 1e-10)",
    )


def test_criterion_3_gaussian_envelope(envelope_slices):
    _, _, slices = envelope_slices
    fit = gaussian_fit(slices)  # construction enforces slope < 0
    gfit = gradient_envelope(slices)
    ok = fit.r_squared >= 0.9 and fit.max_exceedance <= 0.10 and gfit.r_squared >= 0.85
    check(
        "criterion 3 (rough-density Gaussian envelope)",
        ok,
        f"kernel R2 {fit.r_squared:.4f} (>= 0.9), exceedance {fit.max_exceedance:.3f} (<= 0.10), "
        f"gradient R2 {gfit.r_squared:.4f} (>= 0.85); c_dec {fit.c_dec:.2f}",
    )


def test_criterion_4_hoelder_quotient(envelope_slices):
    _, _, slices = envelope_slices
    gfit = gradient_envelope(slices)
    slc = slices[-1]  # t = 0.2: 2|h| <= sqrt(t) for three-step shifts
    maxima = [
        holder_quotient(slc, hv, 0.5, gfit.c_dec).max_in_window
        for hv in ((3, 0), (0, 3), (2, 2))
    ]
    spread = (max(maxima) - min(maxima)) / min(maxima)
    check(
        "criterion 4 (Hoelder quotient boundedness)",
        spread <= 0.30,
        f"quotient maxima {[f'{m:.4f}' for m in maxima]}, spread {spread:.1%} (<= 30%)",
    )


def test_criterion_5_conservation_and_symmetry(envelope_slices):
    coef, params, pres_slices = envelope_slices
    grid = coef.grid
    # conservation on the pre-smoothed envelope slices (against the conserved
    # source momentum) and on fresh unsmoothed columns (against rho(y0) I)
    defects = [conservation_defect(coef, s) for s in pres_slices]
    sources = [(64, 64), (32, 32), (96, 96), (32, 96), (96, 32), (64, 20)]
    cfg = StepperConfig(dt=5e-3)
    column_sets = [kernel_column(coef, params, y0, [0.1], cfg) for y0 in sources]
    for cols in column_sets:
        for s in cols:
            expected = float(coef.rho[s.y0]) * np.eye(2)
            assert np.max(np.abs(s.source_momentum - expected)) < 1e-12
            defects.append(conservation_defect(coef, s))
    pairs = [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5)]
    sym = [symmetry_defect(column_sets[a][0], column_sets[b][0]) for a, b in pairs]
    check(
        "criterion 5 (conservation and symmetry)",
        max(defects) <= 1e-6 and max(sym) <= 1e-4,
        f"max conservation defect {max(defects):.2e} (<= 1e-6), "
        f"max symmetry defect over 5 pairs {max(sym):.2e} (<= 1e-4)",
    )


def test_criterion_6_besov_machinery(params):
    grids = [Grid(2, 32, 16.0), Grid(2, 64, 16.0)]
    # partition of unity at machine precision on both grids
    punity = []
    for grid in grids:
        part = DyadicPartition.for_grid(grid)
        nz = grid.rfreq_sq > 0
        punity.append(float(np.max(np.abs(sum(part.masks)[nz] - 1.0))))
    fields = {
        grid: [random_band_field(grid, 2, 4, seed=100 + i, ncomp=2) for i in range(20)]
        for grid in grids
    }
    drift = {}
    for s in (0.5, -0.5, 0.0):
        for gname, gen in (("laplacian", ScaledLaplacian(1.0)), ("lame", params)):
            kk = []
            for grid in grids:
                ratios = []
                for u in fields[grid]:
                    b = besov_norm_report(grid, u, BesovIndex(s, 2.0)).value
                    h = heat_char_weighting(*heat_profile(grid, u, 2.0, 1, gen), s, 1.0).value
                    ratios.append(h / b)
                kk.append(max(max(ratios), 1.0 / min(ratios)))
            drift[(s, gname)] = abs(kk[1] - kk[0]) / kk[0]
    worst = max(drift.values())
    check(
        "criterion 6 (Besov machinery)",
        max(punity) <= 1e-12 and worst <= 0.20,
        f"partition defect {max(punity):.2e} (<= 1e-12), "
        f"worst K drift under doubling {worst:.1%} (<= 20%)",
    )


def test_criterion_7_norm_equivalence(params):
    grid32 = Grid(2, 32, 16.0)
    unit = Coefficient.constant(grid32, 1.0)
    unit_ratios = [
        norm_equiv_ratio(unit, params, random_band_field(grid32, 1, 4, seed=s, ncomp=2), 0.5, 1.0)
        for s in range(3)
    ]
    unit_err = max(abs(r - 1.0) for r in unit_ratios)

    kk = []
    for n in (32, 64):
        grid = Grid(2, n, 16.0)
        coef = Coefficient(grid, checkerboard_density(grid, 0.5, sharpness=2.0), 0.5)
        ratios = [
            norm_equiv_ratio(coef, params, random_band_field(grid, 1, 4, seed=200 + s, ncomp=2), 0.5, 1.0)
            for s in range(20)
        ]
        kk.append(max(max(ratios), 1.0 / min(ratios)))
    drift = abs(kk[1] - kk[0]) / kk[0]
    check(
        "criterion 7 (norm equivalence)",
        unit_err <= 1e-3 and kk[1] <= 50.0 and drift <= 0.20,
        f"unit-density |ratio - 1| {unit_err:.2e} (<= 1e-3), rough K {kk[1]:.2f} (<= 50), "
        f"drift {drift:.1%} (<= 20%)",
    )


def test_criterion_8_maximal_regularity_ratio(params):
    settings = [(32, 0.01), (64, 0.005)]
    ratios = {n: [] for n, _ in settings}
    for n, dt in settings:
        grid = Grid(2, n, 16.0)
        coef = Coefficient(grid, checkerboard_density(grid, 0.5, sharpness=2.0), 0.5)
        T = 2.0
        t_grid = time_grid(T, dt)
        for i in range(10):
            u0 = random_band_field(grid, 1, 4, seed=300 + 2 * i, ncomp=2)
            fx = random_band_field(grid, 1, 4, seed=301 + 2 * i, ncomp=2)
            prof = random_time_profile(t_grid, 400 + i)
            rep = solve_linear_maxreg(coef, params, u0, prof, fx, BesovIndex(0.0, 2.0), t_grid, StepperConfig(dt=dt))
            ratios[n].append(rep.ratio)
    finite = all(np.isfinite(r) for r in ratios[32] + ratios[64])
    changes = [abs(a - b) / a for a, b in zip(ratios[32], ratios[64])]
    check(
        "criterion 8 (maximal-L1 ratio stability)",
        finite and max(changes) <= 0.10,
        f"max ratio {max(ratios[64]):.2f}, worst per-probe change under "
        f"dt/2 + N*2 refinement {max(changes):.1%} (<= 10%)",
    )


def test_criterion_9_picard_global_solver(standard_run):
    r = standard_run
    diag = r["diag"]
    factors_after_first = diag.contraction_factors
    contraction_ok = len(factors_after_first) > 0 and all(f <= 0.5 for f in factors_after_first)
    report = r["report"]
    residual_ok = report.residual <= 10.0 * diag.stop_tol
    gsi = report.grad_sup_integral
    jmin, jmax = report.det_min, report.det_max
    transport = report.transport
    ok = (
        diag.delta_norms[-1] <= diag.stop_tol
        and contraction_ok
        and residual_ok
        and gsi < 1.0
        and 0.5 <= jmin <= jmax <= 2.0
        and transport.max_pointwise_defect <= 1e-4
        and r["elapsed"] <= 600.0
    )
    check(
        "criterion 9 (Picard global solver)",
        ok,
        f"converged in {diag.iterations} iterations, factors {[f'{f:.3f}' for f in factors_after_first]} "
        f"(<= 0.5), residual {report.residual:.2e} (<= {10 * diag.stop_tol:.2e}), "
        f"grad-sup integral {gsi:.3f} (< 1), J in [{jmin:.3f}, {jmax:.3f}] (within [0.5, 2]), "
        f"transport defect {transport.max_pointwise_defect:.2e} (<= 1e-4), "
        f"runtime {r['elapsed']:.0f}s (<= 600s)",
    )


def test_criterion_10_cross_solver_validation(standard_run):
    r = standard_run
    grid = r["grid"]
    u_ref, _ = eulerian_reference_solve(r["rho0"], r["params"], r["u0"], r["T"], r["pcfg"].stepper)
    rel = lp_norm(grid, r["report"].u_final - u_ref, 2) / lp_norm(grid, u_ref, 2)

    # quadratic smallness of the nonlinearity on the converged state
    state = r["state"]
    idx = BesovIndex(0.0, 2.0)
    norms = []
    for scale in (1.0, 0.5, 0.25):
        scaled = LagrangianState(grid, r["params"], r["rho0"], state.t, scale * state.u)
        vals = [besov_norm_report(grid, nonlinearity_f(scaled, flow), idx).value for flow in flow_nodes(scaled)]
        norms.append(float(np.trapezoid(vals, dx=state.dt)))
    shrinks = [a / b for a, b in zip(norms, norms[1:])]
    quad_ok = all(abs(s - 4.0) <= 0.8 for s in shrinks)
    check(
        "criterion 10 (cross-solver validation)",
        rel <= 0.05 and quad_ok,
        f"Eulerian-vs-Lagrangian rel L2 at T: {rel:.2%} (<= 5%), "
        f"nonlinearity shrink factors {[f'{s:.2f}' for s in shrinks]} (4 +- 0.8)",
    )
