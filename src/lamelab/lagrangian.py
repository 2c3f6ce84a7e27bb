"""Flow-map algebra, the Lagrangian nonlinearity, the small-data fixed point
for the pressureless viscous system, and its Eulerian cross-checks.

Unknowns live on the initial (Lagrangian) grid; trajectories are
X(t, y) = y + integral of the velocity. The velocity gradient Du is taken once
per flow map, as one stack over the time samples, and everything else reads
it: DX = I + integral of Du, the flow-map budget, and the nonlinearity. The
geometry of DX (adjugate, determinant; the inverse is adj / det) is carried
nodewise with closed-form cofactors, which is exact for dim <= 3.
Compositions with X or its inverse go through periodic cubic interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._interp import interp_periodic, spline_prefilter
from .besov import BesovIndex, besov_norm_report, besov_norm_reports
from .grid import Grid, divergence, field_magnitude, integral, jacobian
from .maxreg import solution_norms
from .operators import LameParams, lame_apply
from .varcoef import Coefficient, StepperConfig, _THETA, evolve, theta_step, time_grid


class DiffeomorphismError(RuntimeError):
    """The flow map lost invertibility (det DX <= 0 somewhere)."""

    def __init__(self, t_index: int, node, value: float):
        super().__init__(f"det DX = {value:.3e} <= 0 at t index {t_index}, node {node}")
        self.t_index = t_index
        self.node = node
        self.value = value


class FlowInversionError(RuntimeError):
    """Fixed-point inversion of the flow map failed to converge."""


class CFLError(RuntimeError):
    """The Eulerian reference run's velocity outgrew its advective CFL bound."""


class PicardConvergenceError(RuntimeError):
    """Fixed-point iteration exhausted max_iters; carries the factor history."""

    def __init__(self, message: str, diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


# -- nodewise matrix algebra (closed-form, dim <= 3) ------------------------------


def matrix_adjugate(mat: np.ndarray) -> np.ndarray:
    """Adjugate of a matrix field (leading axes (dim, dim)), closed-form cofactors."""
    d = mat.shape[0]
    out = np.empty_like(mat)
    if d == 2:
        out[0, 0] = mat[1, 1]
        out[0, 1] = -mat[0, 1]
        out[1, 0] = -mat[1, 0]
        out[1, 1] = mat[0, 0]
        return out
    m = mat
    out[0, 0] = m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1]
    out[0, 1] = m[0, 2] * m[2, 1] - m[0, 1] * m[2, 2]
    out[0, 2] = m[0, 1] * m[1, 2] - m[0, 2] * m[1, 1]
    out[1, 0] = m[1, 2] * m[2, 0] - m[1, 0] * m[2, 2]
    out[1, 1] = m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0]
    out[1, 2] = m[0, 2] * m[1, 0] - m[0, 0] * m[1, 2]
    out[2, 0] = m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]
    out[2, 1] = m[0, 1] * m[2, 0] - m[0, 0] * m[2, 1]
    out[2, 2] = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return out


def matrix_determinant(mat: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """Determinant of a matrix field from its adjugate (first-row cofactor expansion)."""
    return sum(mat[0, j] * adj[j, 0] for j in range(mat.shape[0]))


# -- state and flow-map data -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LagrangianState:
    """Velocity in flow coordinates, sampled on a uniform time grid."""

    grid: Grid
    params: LameParams
    rho0: Coefficient
    t: np.ndarray
    u: np.ndarray  # (nt, dim, *shape)

    def __post_init__(self):
        steps = np.diff(self.t)
        if len(steps) < 2 or not np.allclose(steps, steps[0], rtol=1e-10):
            raise ValueError("state needs a uniform time grid with at least 3 samples")
        if self.u.shape != (len(self.t), self.grid.dim) + self.grid.shape:
            raise ValueError(f"velocity shape {self.u.shape} inconsistent with grid/time axes")

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])


@dataclass(frozen=True, eq=False)
class FlowMapData:
    """Trajectory geometry: displacement X - id, the velocity gradient, and the
    adjugate and determinant of DX = I + integral of grad."""

    disp: np.ndarray  # (nt, dim, *shape)
    grad: np.ndarray  # Du, grad[:, a, b] = d_b u_a, (nt, dim, dim, *shape)
    adj: np.ndarray  # adjugate of DX, det * inverse
    det: np.ndarray  # (nt, *shape)


def _time_integral(f: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid integral from t = 0 to every time sample (leading axis) of a
    stack of fields: a running sum of the interval terms dt (f[i] + f[i-1]) / 2,
    each formed in its own output slice, in the order of np.cumsum along time."""
    out = np.empty_like(f)
    out[0] = 0.0
    for i in range(1, len(f)):
        np.add(f[i], f[i - 1], out=out[i])
        out[i] *= dt
        out[i] /= 2.0
        if i > 1:
            out[i] += out[i - 1]
    return out


def flow_map(state: LagrangianState) -> FlowMapData:
    """Integrate the velocity to trajectories and its gradient to DX, and
    assemble the adjugate and determinant of DX; raises DiffeomorphismError if
    det DX <= 0. The spectral derivative commutes with the trapezoid rule, so
    DX - I is the derivative of the displacement without a transform of it."""
    disp = _time_integral(state.u, state.dt)
    grad = jacobian(state.grid, state.u)
    dx = np.moveaxis(_time_integral(grad, state.dt), (1, 2), (0, 1))  # matrix axes first
    for a in range(state.grid.dim):
        dx[a, a] += 1.0
    adj = matrix_adjugate(dx)
    det = matrix_determinant(dx, adj)
    if np.min(det) <= 0.0:
        i, *node = np.unravel_index(np.argmin(det), det.shape)
        raise DiffeomorphismError(int(i), tuple(int(c) for c in node), float(np.min(det)))
    return FlowMapData(disp, grad, np.moveaxis(adj, (0, 1), (1, 2)), det)


# -- the Lagrangian nonlinearity -----------------------------------------------------


def nonlinearity_f(state: LagrangianState, flow: FlowMapData) -> np.ndarray:
    """Quadratic remainder of the flow-twisted elastic operator at every time sample.

    f(u) = mu div((adj A^T - I) grad u)
         + (mu + lam) [ (adj^T - I) grad Tr(A Du) + grad Tr((A - I) Du) ],
    so that the exact momentum balance reads rho0 du/dt - L u = f(u).
    """
    grid = state.grid
    mu, lam = state.params.mu, state.params.lam
    d = grid.dim
    out = np.empty_like(state.u)
    eye = np.eye(d).reshape((d, d) + (1,) * d)
    for i in range(len(state.t)):
        du = flow.grad[i]  # du[a, b] = d_b u_a
        adj = flow.adj[i]
        a_inv = adj / flow.det[i]
        metric = np.einsum("ij...,kj...->ik...", adj, a_inv) - eye
        term1 = divergence(grid, np.einsum("ij...,mj...->mi...", metric, du))
        traces = np.stack(
            [np.einsum("ij...,ji...->...", a_inv, du), np.einsum("ij...,ji...->...", a_inv - eye, du)]
        )
        g_full, term3 = jacobian(grid, traces)
        term2 = np.einsum("ji...,j...->i...", adj, g_full) - g_full
        out[i] = mu * term1 + (mu + lam) * (term2 + term3)
    return out


# -- flow estimates -------------------------------------------------------------------


def grad_besov_l1(state: LagrangianState, flow: FlowMapData, p: float) -> float:
    """L1-in-time Besov norm (regularity n/p) of the velocity gradient, the
    budget of the flow-map estimate: the flow stays a small perturbation of
    the identity while it is below c0."""
    grid = state.grid
    reps = besov_norm_reports(grid, flow.grad, BesovIndex(grid.dim / p, p))
    return float(np.trapezoid([r.value for r in reps], dx=state.dt))


def grad_sup_integral(state: LagrangianState, flow: FlowMapData) -> tuple:
    """Trapezoid quadrature of the sup-norm of the velocity gradient over time,
    and the same integral extrapolated past the horizon from the decay rate of
    its last two samples (the plain integral when they do not decay)."""
    vals = [float(np.max(field_magnitude(state.grid, g))) for g in flow.grad]
    total = float(np.trapezoid(vals, dx=state.dt))
    g_prev, g_end = vals[-2], vals[-1]
    if g_end <= 0 or g_prev <= g_end:
        return total, total
    rate = np.log(g_prev / g_end) / state.dt
    return total, total + g_end / rate


# -- Picard fixed point ----------------------------------------------------------------


@dataclass(frozen=True)
class PicardConfig:
    """Fixed-point controls; the certified-smallness constants are recorded
    empirically, not derived."""

    dt: float
    max_iters: int = 25
    stop_tol_rel: float = 1e-8
    smallness_c: float = 0.05
    flow_smallness_c0: float = 0.1
    p: float = 2.0

    def __post_init__(self):
        if not self.max_iters >= 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        for name, value in (("tol", self.stop_tol_rel), ("c", self.smallness_c), ("c0", self.flow_smallness_c0)):
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite number > 0, got {value}")

    @property
    def stepper(self) -> StepperConfig:
        return StepperConfig(self.dt, cg_tol=1e-11)


@dataclass
class PicardDiagnostics:
    u0_norm: float
    stop_tol: float
    smallness_ok: bool
    iterate_norms: list = field(default_factory=list)  # solution norm per iterate
    delta_norms: list = field(default_factory=list)
    contraction_factors: list = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.delta_norms)


def picard_solve(
    rho0: Coefficient, params: LameParams, u0: np.ndarray, T: float, cfg: PicardConfig
):
    """Iterate the linearized momentum solve to the nonlinear fixed point.

    Starts from the unforced linear solution and refreshes the forcing with
    the previous iterate's nonlinearity; stops when the solution-norm of the
    update falls below stop_tol_rel times the data norm. The time nodes are
    varcoef.time_grid(T, cfg.dt), one step of at most cfg.dt apart.
    """
    grid = rho0.grid
    idx = BesovIndex(grid.dim / cfg.p - 1.0, cfg.p)
    u0_norm = besov_norm_report(grid, u0, idx).value
    diag = PicardDiagnostics(
        u0_norm=u0_norm,
        stop_tol=cfg.stop_tol_rel * max(u0_norm, 1e-300),
        smallness_ok=bool(u0_norm <= cfg.smallness_c * (1.0 + 1e-12)),
    )
    t_grid = time_grid(T, cfg.dt)

    def to_state(u_traj):
        return LagrangianState(grid, params, rho0, t_grid, u_traj)

    u_traj = evolve(rho0, params, u0, t_grid, cfg.stepper)
    diag.iterate_norms.append(solution_norms(grid, u_traj, t_grid[1], params, idx).total)
    if u0_norm == 0.0:
        return to_state(u_traj), diag

    for _ in range(cfg.max_iters):
        state = to_state(u_traj)
        forcing = nonlinearity_f(state, flow_map(state))
        u_next = evolve(rho0, params, u0, t_grid, cfg.stepper, forcing=forcing, guess=u_traj)
        delta = solution_norms(grid, u_next - u_traj, t_grid[1], params, idx).total
        diag.delta_norms.append(delta)
        if len(diag.delta_norms) >= 2 and diag.delta_norms[-2] > 0:
            diag.contraction_factors.append(delta / diag.delta_norms[-2])
        diag.iterate_norms.append(solution_norms(grid, u_next, t_grid[1], params, idx).total)
        u_traj = u_next
        if delta <= diag.stop_tol:
            return to_state(u_traj), diag

    raise PicardConvergenceError(
        f"no convergence in {cfg.max_iters} iterations "
        f"(last update {diag.delta_norms[-1]:.3e}, tolerance {diag.stop_tol:.3e})",
        diag,
    )


def scheme_residual(state: LagrangianState, flow: FlowMapData, p: float) -> float:
    """Defect of the converged iterate in the nonlinear Crank-Nicolson equations.

    Rebuilds the nonlinearity from the state and its flow map and measures,
    in the L1-in-time B^{n/p-1}_{p,1} norm that picard_solve's stopping rule
    uses at the same p, the defect
    rho0 (u_{i+1} - u_i)/dt - theta (L u + f)_{i+1} - (1-theta) (L u + f)_i at
    the stepper's theta = 1/2, all steps in one stack.
    """
    grid = state.grid
    dt = state.dt
    rhs = lame_apply(grid, state.u, state.params) + nonlinearity_f(state, flow)
    defect = state.rho0.rho * (state.u[1:] - state.u[:-1]) / dt - _THETA * rhs[1:] - (1.0 - _THETA) * rhs[:-1]
    total = 0.0
    for rep in besov_norm_reports(grid, defect, BesovIndex(grid.dim / p - 1.0, p)):
        total += dt * rep.value
    return total


# -- Eulerian reconstruction and reference ------------------------------------------------


_INVERT_TOL = 1e-12  # largest last move of invert_flow, relative to the extent
_INVERT_MAX_ITERS = 80


def invert_flow(grid: Grid, disp: np.ndarray) -> np.ndarray:
    """Solve X(Y(x)) = x by the fixed point Y <- x - disp(Y) (contractive for
    small flows); returns Y on the grid nodes."""
    x = grid.coords
    y = x - disp
    coeffs = spline_prefilter(grid, disp)
    for _ in range(_INVERT_MAX_ITERS):
        y_new = x - interp_periodic(grid, y, coeffs)
        move = np.max(np.abs(grid.min_image(y_new - y)))
        y = y_new
        if move <= _INVERT_TOL * grid.extent:
            return y
    raise FlowInversionError(f"flow inversion stalled (last move {move:.3e})")


def pushforward_eulerian(state: LagrangianState, flow: FlowMapData, i: int) -> tuple:
    """Eulerian fields (u, rho) at time node i (negative i counts from the
    end): u(t, x) = u(t, Y(x)) and rho(t, x) = rho0(Y(x)) / J(t, Y(x)), the
    mass-consistent transport (J rho-along-the-flow stays equal to rho0).
    Node 0 returns the data itself, (state.u[0], rho0), not copies."""
    i = range(len(state.t))[i]
    rho0 = state.rho0.rho
    if i == 0:
        return state.u[0], rho0
    grid = state.grid
    y = invert_flow(grid, flow.disp[i])
    coeffs = spline_prefilter(grid, np.concatenate([state.u[i], (rho0 / flow.det[i])[None]]))
    both = interp_periodic(grid, y, coeffs)
    return both[:-1], both[-1]


@dataclass(frozen=True)
class DensityTransportReport:
    max_pointwise_defect: float  # of J * rho(t, X(t, y)) = rho0(y), relative
    max_mass_defect: float  # of int rho(t) = int rho0, relative


def density_transport_check(state: LagrangianState, flow: FlowMapData) -> DensityTransportReport:
    """Worst defects over the time nodes of the transported density: each
    node's pushforward_eulerian density, carried back along the flow, against
    state.rho0, and its mass against rho0's."""
    grid = state.grid
    rho0 = state.rho0
    mass0 = float(integral(grid, rho0.rho))
    scale = float(np.max(np.abs(rho0.rho)))
    worst_point = 0.0
    worst_mass = 0.0
    for i in range(len(state.t)):
        _, rho = pushforward_eulerian(state, flow, i)
        rho_on_path = interp_periodic(grid, grid.coords + flow.disp[i], spline_prefilter(grid, rho))
        defect = np.max(np.abs(flow.det[i] * rho_on_path - rho0.rho)) / scale
        worst_point = max(worst_point, float(defect))
        mass = float(integral(grid, rho))
        worst_mass = max(worst_mass, abs(mass - mass0) / abs(mass0))
    return DensityTransportReport(worst_point, worst_mass)


def eulerian_reference_solve(
    rho0: Coefficient,
    params: LameParams,
    u0: np.ndarray,
    T: float,
    cfg: StepperConfig,
) -> tuple:
    """Independent Eulerian solver: semi-Lagrangian transport of density and
    momentum followed by the implicit viscous step with the transported
    density frozen; returns its fields (u, rho) at T. Shares nothing with the
    flow-map pipeline but its time nodes, varcoef.time_grid(T, cfg.dt), one
    step of at most cfg.dt apart."""
    grid = rho0.grid
    t_grid = time_grid(T, cfg.dt)
    dt = float(t_grid[1])
    rho = rho0.rho
    u = np.asarray(u0, dtype=float)
    x = grid.coords
    for i in range(len(t_grid) - 1):
        umax = float(np.max(field_magnitude(grid, u)))
        if dt * umax / grid.spacing > 1.0:
            raise CFLError(
                f"advective CFL violated at step {i}: dt |u| / h = {dt * umax / grid.spacing:.2f}"
            )
        # departure points, midpoint rule; u, rho and div u share one prefilter
        coeffs = spline_prefilter(grid, np.concatenate([u, rho[None], divergence(grid, u)[None]]))
        x_mid = x - 0.5 * dt * u
        x_dep = x - dt * interp_periodic(grid, x_mid, coeffs[: grid.dim])
        adv = interp_periodic(grid, x_dep, coeffs)
        rho = adv[grid.dim] * np.exp(-dt * adv[grid.dim + 1])
        u = theta_step(grid, rho, params, adv[: grid.dim], dt, cfg.cg_tol)
    return u, rho
