"""Flow-map algebra, the Lagrangian nonlinearity, the small-data fixed point
for the pressureless viscous system, and its Eulerian cross-checks.

Unknowns live on the initial (Lagrangian) grid; trajectories are
X(t, y) = y + integral of the velocity. The flow map is built one time node
at a time, going on from the node before's running trapezoid sums, so its
memory does not grow with the horizon. The velocity gradient Du is taken
once per node, and everything else reads it: DX = I + integral of Du, the
flow-map budget, and the nonlinearity. The geometry of DX (adjugate,
determinant; the inverse is adj / det) is carried nodewise with closed-form
cofactors, which is exact for dim <= 3. Compositions with X or its inverse
go through periodic cubic interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._interp import interp_periodic, spline_prefilter
from .besov import BesovIndex, besov_norm_report
from .grid import Grid, divergence, field_magnitude, integral, jacobian
from .maxreg import solution_norms
from .operators import LameParams, lame_apply
from .varcoef import Coefficient, StepperConfig, _THETA, evolve, theta_step, time_grid


class DiffeomorphismError(RuntimeError):
    """The flow map lost invertibility (det DX <= 0 somewhere). It names the
    earliest time node where det DX <= 0 and the minimum on that node."""

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
    """Trajectory geometry at one time node: displacement X - id, the velocity
    gradient, and the adjugate and determinant of DX = I + grad_sum, where
    grad_sum is the integral of grad up to the node, from which the next
    node's running sum goes on."""

    i: int  # index into the state's time nodes
    disp: np.ndarray  # (dim, *shape)
    grad: np.ndarray  # Du, grad[a, b] = d_b u_a, (dim, dim, *shape)
    adj: np.ndarray  # adjugate of DX, det * inverse
    det: np.ndarray  # (*shape)
    grad_sum: np.ndarray  # (dim, dim, *shape)


def _trapezoid_step(f: np.ndarray, f_before: np.ndarray, total, dt: float) -> np.ndarray:
    """The trapezoid integral from t = 0 one time node on: the interval term
    dt (f + f_before) / 2 plus total, the integral at the node before. On the
    first interval total is None and the term is the integral, so that a
    running sum of these steps keeps the bits of np.cumsum along time."""
    out = np.add(f, f_before)
    out *= dt
    out /= 2.0
    if total is not None:
        out += total
    return out


def flow_map(state: LagrangianState, prev: FlowMapData | None) -> FlowMapData:
    """Integrate the velocity to the trajectory and its gradient to DX at one
    time node, and assemble the adjugate and determinant of DX.

    Node 0 passes prev = None; node i > 0 passes the FlowMapData of node
    i - 1, whose running sums it goes on from. Raises DiffeomorphismError
    where det DX <= 0 at the node. The spectral derivative commutes with the
    trapezoid rule, so DX - I is the derivative of the displacement without a
    transform of it."""
    i = 0 if prev is None else prev.i + 1
    u = state.u[i]
    grad = jacobian(state.grid, u)
    if prev is None:
        disp, grad_sum = np.zeros_like(u), np.zeros_like(grad)
    else:
        first = prev.i == 0  # the integral at t = 0 is not added, as in np.cumsum
        disp = _trapezoid_step(u, state.u[prev.i], None if first else prev.disp, state.dt)
        grad_sum = _trapezoid_step(grad, prev.grad, None if first else prev.grad_sum, state.dt)
    dx = grad_sum.copy()
    for a in range(state.grid.dim):
        dx[a, a] += 1.0
    adj = matrix_adjugate(dx)
    det = matrix_determinant(dx, adj)
    low = np.min(det)
    if low <= 0.0:
        node = np.unravel_index(np.argmin(det), det.shape)
        raise DiffeomorphismError(i, tuple(int(c) for c in node), float(low))
    return FlowMapData(i, disp, grad, adj, det, grad_sum)


def flow_nodes(state: LagrangianState):
    """flow_map at each of the state's time nodes, in time order."""
    flow = None
    for _ in state.t:
        flow = flow_map(state, flow)
        yield flow


# -- the Lagrangian nonlinearity -----------------------------------------------------


def nonlinearity_f(state: LagrangianState, flow: FlowMapData) -> np.ndarray:
    """Quadratic remainder of the flow-twisted elastic operator at the flow
    map's time node, shape (dim, *shape).

    f(u) = mu div((adj A^T - I) grad u)
         + (mu + lam) [ (adj^T - I) grad Tr(A Du) + grad Tr((A - I) Du) ],
    so that the exact momentum balance reads rho0 du/dt - L u = f(u).
    """
    grid = state.grid
    mu, lam = state.params.mu, state.params.lam
    d = grid.dim
    eye = np.eye(d).reshape((d, d) + (1,) * d)
    du, adj = flow.grad, flow.adj  # du[a, b] = d_b u_a
    a_inv = adj / flow.det
    metric = np.einsum("ij...,kj...->ik...", adj, a_inv) - eye
    term1 = divergence(grid, np.einsum("ij...,mj...->mi...", metric, du))
    traces = np.stack([np.einsum("ij...,ji...->...", a_inv, du), np.einsum("ij...,ji...->...", a_inv - eye, du)])
    g_full, term3 = jacobian(grid, traces)
    term2 = np.einsum("ji...,j...->i...", adj, g_full) - g_full
    return mu * term1 + (mu + lam) * (term2 + term3)


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
    """A Picard solve's record, one entry per forced iteration k: the
    solution norm of the iterate it made, the norm of its update over the
    previous iterate, and from the second iteration on the update's ratio
    to the last. The unforced first iterate is made but not measured."""

    u0_norm: float
    stop_tol: float
    smallness_ok: bool
    iterate_norms: list = field(default_factory=list)
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
    varcoef.time_grid(T, cfg.dt), one step of at most cfg.dt apart. Only the
    iterate and its successor are held whole: evolve reads the forcing from a
    generator, which forms each node's nonlinearity as the steps reach it, and
    the update is written over the old iterate.
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
    if u0_norm == 0.0:
        return to_state(u_traj), diag

    for _ in range(cfg.max_iters):
        state = to_state(u_traj)
        forcing = (nonlinearity_f(state, flow) for flow in flow_nodes(state))
        u_next = evolve(rho0, params, u0, t_grid, cfg.stepper, forcing=forcing, guess=u_traj)
        delta = solution_norms(grid, np.subtract(u_next, u_traj, out=u_traj), t_grid[1], params, idx).total
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


def scheme_residual(state: LagrangianState, flow: FlowMapData, p: float, rhs_before) -> tuple:
    """Defect of the converged iterate in the nonlinear Crank-Nicolson
    equations, on the step that ends on the flow map's node i.

    Rebuilds the nonlinearity from the state and the node's flow map and
    measures the step's defect
    rho0 (u_i - u_{i-1})/dt - theta (L u + f)_i - (1-theta) (L u + f)_{i-1} at
    the stepper's theta = 1/2 in B^{n/p-1}_{p,1}, the space of picard_solve's
    stopping rule at the same p; rhs_before is (L u + f)_{i-1}, which the call
    at node i - 1 returned. Returns the step's term dt ||defect||, whose sum
    over the nodes in time order is the L1-in-time defect (0 at node 0, which
    ends no step and takes no rhs_before), and (L u + f)_i.
    """
    grid = state.grid
    dt = state.dt
    i = flow.i
    rhs = lame_apply(grid, state.u[i], state.params) + nonlinearity_f(state, flow)
    if i == 0:
        return 0.0, rhs
    defect = state.rho0.rho * (state.u[i] - state.u[i - 1]) / dt - _THETA * rhs - (1.0 - _THETA) * rhs_before
    return dt * besov_norm_report(grid, defect, BesovIndex(grid.dim / p - 1.0, p)).value, rhs


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


def pushforward_eulerian(state: LagrangianState, flow: FlowMapData) -> tuple:
    """Eulerian fields (u, rho) at the flow map's time node: u(t, x) =
    u(t, Y(x)) and rho(t, x) = rho0(Y(x)) / J(t, Y(x)), the mass-consistent
    transport (J rho-along-the-flow stays equal to rho0). Node 0 returns the
    data itself, (state.u[0], rho0), not copies."""
    rho0 = state.rho0.rho
    if flow.i == 0:
        return state.u[0], rho0
    grid = state.grid
    y = invert_flow(grid, flow.disp)
    coeffs = spline_prefilter(grid, np.concatenate([state.u[flow.i], (rho0 / flow.det)[None]]))
    both = interp_periodic(grid, y, coeffs)
    return both[:-1], both[-1]


@dataclass(frozen=True)
class DensityTransportReport:
    max_pointwise_defect: float  # of J * rho(t, X(t, y)) = rho0(y), relative
    max_mass_defect: float  # of int rho(t) = int rho0, relative


def density_transport_check(state: LagrangianState, flow: FlowMapData, rho: np.ndarray) -> DensityTransportReport:
    """Defects of rho, the pushforward_eulerian density at the flow map's
    time node: carried back along the flow, against state.rho0, and its mass
    against rho0's."""
    grid = state.grid
    rho0 = state.rho0.rho
    rho_on_path = interp_periodic(grid, grid.coords + flow.disp, spline_prefilter(grid, rho))
    point = np.max(np.abs(flow.det * rho_on_path - rho0)) / float(np.max(np.abs(rho0)))
    mass0 = float(integral(grid, rho0))
    mass = float(integral(grid, rho))
    return DensityTransportReport(float(point), abs(mass - mass0) / abs(mass0))


@dataclass(frozen=True, eq=False)
class FlowDiagnostics:
    """What a converged run reports of its flow map."""

    flow_budget: float  # L1-in-time Besov norm (regularity n/p) of grad u
    grad_sup_integral: float  # trapezoid integral of sup |grad u| over time
    grad_sup_integral_extrapolated: float  # the same, extrapolated past the horizon
    det_min: float  # range of det DX over space and time
    det_max: float
    transport: DensityTransportReport
    residual: float  # L1-in-time scheme_residual
    u_final: np.ndarray  # pushforward_eulerian at the last node
    rho_final: np.ndarray


def flow_diagnostics(state: LagrangianState, p: float) -> FlowDiagnostics:
    """Every flow diagnostic of a converged state, from one pass over its
    time nodes; each is a reduction over the nodes in time order.

    The flow budget is the L1-in-time Besov norm of regularity n/p of the
    velocity gradient: the flow stays a small perturbation of the identity
    while it is below c0. The sup-norm integral of the gradient is
    extrapolated past the horizon from the decay rate of its last two
    samples (it stays the plain integral when they do not decay).
    """
    grid = state.grid
    budget_idx = BesovIndex(grid.dim / p, p)
    budget, sups = [], []
    det_min, det_max = np.inf, -np.inf
    worst_point = worst_mass = residual = 0.0
    rhs = None
    for flow in flow_nodes(state):
        budget.append(besov_norm_report(grid, flow.grad, budget_idx).value)
        sups.append(float(np.max(field_magnitude(grid, flow.grad))))
        det_min = min(det_min, float(np.min(flow.det)))
        det_max = max(det_max, float(np.max(flow.det)))
        u_final, rho_final = pushforward_eulerian(state, flow)
        transport = density_transport_check(state, flow, rho_final)
        worst_point = max(worst_point, transport.max_pointwise_defect)
        worst_mass = max(worst_mass, transport.max_mass_defect)
        term, rhs = scheme_residual(state, flow, p, rhs)
        residual += term  # one add per step in time order (sum() compensates on newer Pythons)
    gsi = gsi_extrapolated = float(np.trapezoid(sups, dx=state.dt))
    g_prev, g_end = sups[-2], sups[-1]
    if not (g_end <= 0 or g_prev <= g_end):
        gsi_extrapolated = gsi + g_end / (np.log(g_prev / g_end) / state.dt)
    return FlowDiagnostics(
        flow_budget=float(np.trapezoid(budget, dx=state.dt)),
        grad_sup_integral=gsi,
        grad_sup_integral_extrapolated=gsi_extrapolated,
        det_min=det_min,
        det_max=det_max,
        transport=DensityTransportReport(worst_point, worst_mass),
        residual=residual,
        u_final=u_final,
        rho_final=rho_final,
    )


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
