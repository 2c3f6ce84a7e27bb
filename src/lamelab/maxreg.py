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

from .besov import BesovIndex, besov_norm_report, besov_norm_reports, extended_time_nodes, geometric_lq
from .grid import lp_norm
from .operators import LameParams, _apply, _heat, _spectral, lame_apply
from .varcoef import Coefficient, StepperConfig, evolve


# Uniform steps per geometric node interval of the norm-equivalence probe: at 8
# the unit-density ratio is 1 to 7e-5 (1.8e-5 at 16), well inside 1e-3.
_SUBSTEPS = 8


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


def time_derivative(trajectory: np.ndarray, dt: float) -> np.ndarray:
    """Centered differences in time (one-sided at the ends)."""
    if trajectory.shape[0] < 3:
        raise ValueError("need at least 3 time samples")
    return np.gradient(trajectory, dt, axis=0)


def solution_norms(
    grid, trajectory: np.ndarray, dt: float, params: LameParams, idx: BesovIndex
) -> SolutionNorms:
    """Solution-space norm of a uniformly sampled trajectory.

    sup-in-time Besov norm plus L1-in-time (trapezoid) norms of du/dt and of
    the elastic operator, each taken in one pass over the stacked time slices
    (the maximal-regularity space uses idx = (n/p - 1, p, 1)).
    """
    # one stack at a time, so that du and Lu are not held together
    dt_reps = besov_norm_reports(grid, time_derivative(trajectory, dt), idx)
    op_reps = besov_norm_reports(grid, lame_apply(grid, trajectory, params), idx)
    sup = besov_norm_reports(grid, trajectory, idx)
    return SolutionNorms(
        sup_norm=max(r.value for r in sup),
        dt_norm=float(np.trapezoid([r.value for r in dt_reps], dx=dt)),
        op_norm=float(np.trapezoid([r.value for r in op_reps], dx=dt)),
        max_leakage=max(r.leakage for r in sup + dt_reps + op_reps),
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


def time_grid(T: float, dt: float) -> np.ndarray:
    """Uniform nodes on [0, T] for a maximal-regularity run: spacing as close
    to dt as a whole number of intervals allows, and at least the 3 nodes
    that time_derivative needs. Forcing is sampled on these same nodes."""
    if not (np.isfinite(T) and T > 0):
        raise ValueError(f"T must be a finite time > 0, got {T}")
    return np.linspace(0.0, T, max(3, int(round(T / dt)) + 1))


def solve_linear_maxreg(
    coef: Coefficient,
    params: LameParams,
    u0: np.ndarray,
    forcing: np.ndarray,
    s: float,
    p: float,
    T: float,
    cfg: StepperConfig,
) -> MaxRegReport:
    """Run the linear system over [0, T] and assemble the regularity ratio.

    forcing is sampled on time_grid(T, cfg.dt). L1-in-time
    norms use the trapezoid rule on the stepper's own nodes; the sup norm is
    the max over nodes.
    """
    grid = coef.grid
    t_grid = time_grid(T, cfg.dt)
    dt = t_grid[1] - t_grid[0]
    traj = evolve(coef, params, u0, t_grid, cfg.with_dt(dt), forcing=forcing)

    idx = BesovIndex(s, p)
    out = solution_norms(grid, traj, dt, params, idx)
    u0_rep = besov_norm_report(grid, u0, idx)
    f_reps = besov_norm_reports(grid, forcing, idx)
    f_l1 = float(np.trapezoid([r.value for r in f_reps], dx=dt))
    leak = max([out.max_leakage, u0_rep.leakage] + [r.leakage for r in f_reps])
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


def _weighted_lq(values: np.ndarray, t_nodes: np.ndarray, s: float, q: float, value_at_zero: float) -> float:
    """|| t^s g ||_{L^q(dt/t)} by geometric_lq on the nodes of extended_time_nodes.

    value_at_zero = g(0+) supplies the analytic t -> 0 tail
    int_0^{t_0} (t^s g(0))^q dt/t of a profile with g(0+) finite, which the
    truncated node sum would otherwise drop (the integrand is edge-heavy for
    s in (0, 1))."""
    t_cut = t_nodes[0] * 2.0 ** (-0.25)  # lower edge of the first node's cell
    tail = 0.0 if np.isinf(q) else t_cut ** (s * q) * value_at_zero**q / (s * q)
    return geometric_lq(t_nodes**s * values, q, tail=tail)


def refine_time_grid(t_nodes: np.ndarray, substeps: int) -> np.ndarray:
    """Insert uniform substeps inside [0, t0] and between geometric nodes."""
    pieces = [np.linspace(0.0, t_nodes[0], substeps + 1)]
    for a, b in zip(t_nodes[:-1], t_nodes[1:]):
        pieces.append(np.linspace(a, b, substeps + 1)[1:])
    return np.concatenate(pieces)


def norm_equiv_ratio(
    coef: Coefficient,
    params: LameParams,
    x: np.ndarray,
    s: float,
    q: float,
) -> float:
    """Ratio of semigroup-profile norms: rough flow of x over heat flow of rho*x.

    Numerator: || t^s ||e^{t b L} x||_2 ||_{L^q(dt/t)} from one evolve pass.
    Denominator: same weight on ||e^{t L}(rho x)||_2, evaluated exactly per
    frequency. Both sides share the quadrature nodes, so the ratio is 1 to
    stepping accuracy when rho is constant. The node range extends well past
    the resolvable scales on both ends: the t^(s-1) lower tail carries real
    mass for s in (0, 1), and both semigroups remain well defined discretely.
    """
    if not (0.0 < s < 1.0):
        raise ValueError(f"s must be in (0, 1), got {s}")
    grid = coef.grid
    nodes = extended_time_nodes(grid, params, above=4.0)
    fine = refine_time_grid(nodes, _SUBSTEPS)
    # the intervals are already refined: one step each, at the default CG tolerance
    traj = evolve(coef, params, x, fine, StepperConfig(float(fine[-1])))
    node_idx = np.searchsorted(fine, nodes)
    num_vals = np.array([lp_norm(grid, traj[i], 2) for i in node_idx])
    spec = _spectral(grid, coef.rho * x, params)
    den_vals = np.array([lp_norm(grid, _apply(grid, spec, _heat(t, 0)), 2) for t in nodes])
    num = _weighted_lq(num_vals, nodes, s, q, value_at_zero=lp_norm(grid, x, 2))
    den = _weighted_lq(den_vals, nodes, s, q, value_at_zero=lp_norm(grid, coef.rho * x, 2))
    if den == 0.0:
        raise DegenerateProbeError("degenerate probe: constant-coefficient profile vanished")
    return num / den
