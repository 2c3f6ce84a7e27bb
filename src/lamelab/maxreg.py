"""Maximal L1-in-time regularity ratios and the semigroup norm-equivalence probe.

These diagnostics measure, not prove: each run reports the observed ratio of
output norms (sup-in-time Besov, L1-in-time of the time derivative and of the
elastic operator) to input norms, and the observed equivalence constant
between the rough-coefficient semigroup profile of x and the
constant-coefficient profile of rho * x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .besov import BesovIndex, besov_norm_report, besov_norm_reports, extended_time_nodes, geometric_l1
from .grid import chunks, lp_norm
from .operators import LameParams, heat_norms, lame_apply
from .varcoef import Coefficient, StepperConfig, evolve, semigroup


class DegenerateProbeError(RuntimeError):
    """A norm-equivalence probe whose constant-coefficient profile vanished."""


@dataclass(frozen=True)
class SolutionNorms:
    """Components of the solution-space norm and the largest boundary leakage
    among the Besov norms they were taken from."""

    sup_norm: float
    dt_norm: float
    op_norm: float
    max_leakage: float

    @property
    def total(self) -> float:
        return self.sup_norm + self.dt_norm + self.op_norm


def time_derivative(trajectory: np.ndarray, dt: float, nodes: slice) -> np.ndarray:
    """du/dt at the time nodes `nodes` of a uniformly sampled trajectory:
    centred differences, one-sided at the trajectory's ends. np.gradient
    takes them from the nodes and one neighbour on each side, so every node
    gets the bits it gets in the whole trajectory's np.gradient."""
    if trajectory.shape[0] < 3:
        raise ValueError("need at least 3 time samples")
    lo, hi = max(nodes.start - 1, 0), min(nodes.stop + 1, len(trajectory))
    return np.gradient(trajectory[lo:hi], dt, axis=0)[nodes.start - lo : nodes.stop - lo]


def solution_norms(
    grid, trajectory: np.ndarray, dt: float, params: LameParams, idx: BesovIndex
) -> SolutionNorms:
    """Solution-space norm of a uniformly sampled trajectory.

    sup-in-time Besov norm plus L1-in-time (trapezoid) norms of du/dt and of
    the elastic operator (the maximal-regularity space uses
    idx = (n/p - 1, p, 1)). The time nodes are taken in chunks of
    grid.chunks' budget, so du/dt and Lu are never held for the whole
    trajectory; each node's norms are those of the whole stack, bit for bit.
    """
    sup, dt_vals, op_vals, leakage = [], [], [], []
    for nodes in chunks(len(trajectory), trajectory[0].nbytes):
        # one stack at a time, so that du and Lu are not held together
        dt_reps = besov_norm_reports(grid, time_derivative(trajectory, dt, nodes), idx)
        op_reps = besov_norm_reports(grid, lame_apply(grid, trajectory[nodes], params), idx)
        sup_reps = besov_norm_reports(grid, trajectory[nodes], idx)
        sup += [r.value for r in sup_reps]
        dt_vals += [r.value for r in dt_reps]
        op_vals += [r.value for r in op_reps]
        leakage += [r.leakage for r in sup_reps + dt_reps + op_reps]
    return SolutionNorms(
        sup_norm=max(sup),
        dt_norm=float(np.trapezoid(dt_vals, dx=dt)),
        op_norm=float(np.trapezoid(op_vals, dx=dt)),
        max_leakage=max(leakage),
    )


@dataclass(frozen=True)
class MaxRegReport:
    """Input and output norms of one linear run and their ratio."""

    u0_norm: float
    forcing_norm: float
    sup_norm: float
    dt_norm: float
    op_norm: float
    ratio: float
    max_leakage: float


def solve_linear_maxreg(
    coef: Coefficient,
    params: LameParams,
    u0: np.ndarray,
    profile: np.ndarray,
    field: np.ndarray,
    idx: BesovIndex,
    t_grid: np.ndarray,
    cfg: StepperConfig,
) -> MaxRegReport:
    """Run the linear system over the uniform time nodes t_grid (from
    t_grid[0] = 0) with the separable forcing f = phi(t) g(x), profile
    holding phi at the nodes and field g, and assemble the regularity ratio
    in the Besov space idx. L1-in-time norms use the trapezoid rule on those
    nodes; the sup norm is the max over nodes.

    evolve reads the forcing's rows phi_i * g as the steps reach them, so no
    stack of rows is formed. The Besov norm is homogeneous, so the forcing's
    norm is ||g|| times the trapezoid of |phi|: one pass over g, whose
    leakage is the forcing's.
    """
    grid = coef.grid
    dt = t_grid[1] - t_grid[0]
    traj = evolve(coef, params, u0, t_grid, cfg, forcing=(phi * field for phi in profile))

    out = solution_norms(grid, traj, dt, params, idx)
    u0_rep = besov_norm_report(grid, u0, idx)
    g_rep = besov_norm_report(grid, field, idx)
    f_l1 = float(g_rep.value * np.trapezoid(np.abs(profile), dx=dt))
    leak = max(out.max_leakage, u0_rep.leakage, g_rep.leakage)
    ratio = 0.0 if out.total == 0.0 else out.total / (u0_rep.value + f_l1)
    return MaxRegReport(
        u0_norm=u0_rep.value,
        forcing_norm=f_l1,
        sup_norm=out.sup_norm,
        dt_norm=out.dt_norm,
        op_norm=out.op_norm,
        ratio=ratio,
        max_leakage=leak,
    )


def _weighted_l1(values: np.ndarray, t_nodes: np.ndarray, s: float, value_at_zero: float) -> float:
    """|| t^s g ||_{L^1(dt/t)} by geometric_l1 on the nodes of extended_time_nodes.

    value_at_zero = g(0+) supplies the analytic t -> 0 tail
    int_0^{t_0} t^s g(0) dt/t = t_0^s g(0) / s of a profile with g(0+)
    finite, which the truncated node sum would otherwise drop (the integrand
    is edge-heavy for s in (0, 1))."""
    t_cut = t_nodes[0] * 2.0 ** (-0.25)  # lower edge of the first node's cell
    return geometric_l1(t_nodes**s * values, tail=t_cut**s * value_at_zero / s)


def norm_equiv_ratio(coef: Coefficient, params: LameParams, x: np.ndarray, s: float) -> float:
    """Ratio of semigroup-profile norms: rough flow of x over heat flow of rho*x.

    Numerator: || t^s ||e^{t b L} x||_2 ||_{L^1(dt/t)}, the semigroup taken at
    the nodes by varcoef.semigroup. Denominator: same weight on
    ||e^{t L}(rho x)||_2, evaluated exactly per frequency. Both sides share the
    quadrature nodes, so the ratio is 1 to the Krylov tolerance when rho is
    constant. The node range extends well past the resolvable scales on both
    ends: the t^(s-1) lower tail carries real mass for s in (0, 1), and both
    semigroups remain well defined discretely.
    """
    if not (0.0 < s < 1.0):
        raise ValueError(f"s must be in (0, 1), got {s}")
    grid = coef.grid
    nodes = extended_time_nodes(grid, params, above=4.0)
    num_vals = np.array([lp_norm(grid, u, 2) for u in semigroup(coef, params, x, nodes)])
    den_vals = heat_norms(grid, coef.rho * x, params, nodes, 0, 2)
    num = _weighted_l1(num_vals, nodes, s, value_at_zero=lp_norm(grid, x, 2))
    den = _weighted_l1(den_vals, nodes, s, value_at_zero=lp_norm(grid, coef.rho * x, 2))
    if den == 0.0:
        raise DegenerateProbeError("degenerate probe: constant-coefficient profile vanished")
    return num / den
