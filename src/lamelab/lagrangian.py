"""Flow-map algebra, the Lagrangian nonlinearity, the small-data fixed point
for the pressureless viscous system, and its Eulerian cross-checks.

Unknowns live on the initial (Lagrangian) grid; trajectories are
X(t, y) = y + integral of the velocity. The flow map is built for a range of
time nodes at a time, carrying the running trapezoid sums from one range to
the next, so its memory depends on grid.chunks' budget and not on the
horizon. The velocity gradient Du is taken once per range, and everything
else reads it: DX = I + integral of Du, the flow-map budget, and the
nonlinearity. The geometry of DX (adjugate, determinant; the inverse is
adj / det) is carried nodewise with closed-form cofactors, which is exact for
dim <= 3. Compositions with X or its inverse go through periodic cubic
interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._interp import interp_periodic, spline_prefilter
from .besov import BesovIndex, besov_norm_report, besov_norm_reports
from .grid import Grid, chunks, divergence, field_magnitude, integral, jacobian
from .maxreg import solution_norms
from .operators import LameParams, lame_apply
from .varcoef import Coefficient, StepperConfig, _THETA, evolve, theta_step, time_grid


class DiffeomorphismError(RuntimeError):
    """The flow map lost invertibility (det DX <= 0 somewhere). It names the
    earliest time node where det DX <= 0 and the minimum on that node, so
    the error does not depend on how the nodes are split into ranges."""

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
    """Trajectory geometry on a range of time nodes: displacement X - id, the
    velocity gradient, and the adjugate and determinant of DX = I + integral
    of grad, each stacked over the range. grad_sum is that integral at the
    range's last node, from which the next range's running sum goes on."""

    nodes: range  # indices into the state's time nodes
    disp: np.ndarray  # (len(nodes), dim, *shape)
    grad: np.ndarray  # Du, grad[:, a, b] = d_b u_a, (len(nodes), dim, dim, *shape)
    adj: np.ndarray  # adjugate of DX, det * inverse
    det: np.ndarray  # (len(nodes), *shape)
    grad_sum: np.ndarray  # (dim, dim, *shape)


def _time_integral(f: np.ndarray, dt: float, before) -> np.ndarray:
    """Trapezoid integral from t = 0 to every time sample (leading axis) of a
    stack of fields: a running sum of the interval terms dt (f[i] + f[i-1]) / 2,
    each formed in its own output slice, in the order of np.cumsum along time.

    A stack that starts at t = 0 passes before = None. A stack that goes on
    from an earlier one passes before = (the earlier stack's last sample, the
    integral there), the integral None when that sample is at t = 0: there
    the first term is the integral itself, as in cumsum, so that splitting a
    stack in two keeps every bit."""
    out = np.empty_like(f)
    prev, total = (None, None) if before is None else before
    for i in range(len(f)):
        if prev is None:
            out[i] = 0.0
        else:
            np.add(f[i], prev, out=out[i])
            out[i] *= dt
            out[i] /= 2.0
            if total is not None:
                out[i] += total
            total = out[i]
        prev = f[i]
    return out


def flow_map(state: LagrangianState, nodes: range, prev: FlowMapData | None) -> FlowMapData:
    """Integrate the velocity to trajectories and its gradient to DX over the
    time nodes `nodes`, and assemble the adjugate and determinant of DX.

    A range that starts at node 0 passes prev = None; any other passes the
    FlowMapData of the range just before it, whose last samples and running
    sums it goes on from, so that every node gets the bits of one range over
    the whole trajectory. Raises DiffeomorphismError at the range's earliest
    node where det DX <= 0. The spectral derivative commutes with the
    trapezoid rule, so DX - I is the derivative of the displacement without a
    transform of it."""
    if nodes.start != (0 if prev is None else prev.nodes.stop):
        raise ValueError(f"time nodes {nodes} do not go on from the previous range")
    u = state.u[nodes.start : nodes.stop]
    grad = jacobian(state.grid, u)
    if prev is None:
        disp = _time_integral(u, state.dt, None)
        integrated = _time_integral(grad, state.dt, None)
    else:
        after_zero = nodes.start == 1  # the integral at node 0 is not added, as in cumsum
        disp = _time_integral(u, state.dt, (state.u[nodes.start - 1], None if after_zero else prev.disp[-1]))
        integrated = _time_integral(grad, state.dt, (prev.grad[-1], None if after_zero else prev.grad_sum))
    grad_sum = integrated[-1].copy()
    dx = np.moveaxis(integrated, (1, 2), (0, 1))  # matrix axes first
    for a in range(state.grid.dim):
        dx[a, a] += 1.0
    adj = matrix_adjugate(dx)
    det = matrix_determinant(dx, adj)
    low = np.min(det.reshape(len(det), -1), axis=1)
    if np.any(low <= 0.0):
        i = int(np.argmax(low <= 0.0))
        node = np.unravel_index(np.argmin(det[i]), det[i].shape)
        raise DiffeomorphismError(nodes.start + i, tuple(int(c) for c in node), float(low[i]))
    return FlowMapData(nodes, disp, grad, np.moveaxis(adj, (0, 1), (1, 2)), det, grad_sum)


def _flow_ranges(state: LagrangianState):
    """flow_map over consecutive ranges of the state's time nodes, in time
    order; a range holds as many nodes as grid.chunks allows for one node's
    FlowMapData (disp, grad, adj and det)."""
    dim = state.grid.dim
    flow = None
    for part in chunks(len(state.t), 8 * (dim + 2 * dim * dim + 1) * state.grid.size):
        flow = flow_map(state, range(part.start, part.stop), flow)
        yield flow


# -- the Lagrangian nonlinearity -----------------------------------------------------


def nonlinearity_f(state: LagrangianState, flow: FlowMapData) -> np.ndarray:
    """Quadratic remainder of the flow-twisted elastic operator at every time
    node of the flow map's range, shape (len(flow.nodes), dim, *shape).

    f(u) = mu div((adj A^T - I) grad u)
         + (mu + lam) [ (adj^T - I) grad Tr(A Du) + grad Tr((A - I) Du) ],
    so that the exact momentum balance reads rho0 du/dt - L u = f(u).
    """
    grid = state.grid
    mu, lam = state.params.mu, state.params.lam
    d = grid.dim
    out = np.empty_like(flow.disp)
    eye = np.eye(d).reshape((d, d) + (1,) * d)
    for i in range(len(flow.nodes)):
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
    varcoef.time_grid(T, cfg.dt), one step of at most cfg.dt apart. Only the
    iterate, its successor and one more trajectory are held whole: that one
    takes the forcing, filled a flow-map range at a time, and then the update.
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

    work = np.empty_like(u_traj)  # the forcing, then the update
    for _ in range(cfg.max_iters):
        state = to_state(u_traj)
        for flow in _flow_ranges(state):
            work[flow.nodes.start : flow.nodes.stop] = nonlinearity_f(state, flow)
        u_next = evolve(rho0, params, u0, t_grid, cfg.stepper, forcing=work, guess=u_traj)
        delta = solution_norms(grid, np.subtract(u_next, u_traj, out=work), t_grid[1], params, idx).total
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
    equations, on the steps that end on the flow map's nodes.

    Rebuilds the nonlinearity from the state and its flow map and measures
    each step's defect
    rho0 (u_{i+1} - u_i)/dt - theta (L u + f)_{i+1} - (1-theta) (L u + f)_i at
    the stepper's theta = 1/2 in B^{n/p-1}_{p,1}, the space of picard_solve's
    stopping rule at the same p. Returns the steps' terms dt ||defect||, whose
    sum in time order is the L1-in-time defect, and (L u + f) at the range's
    last node: the rhs_before of the next range (None for the range that
    starts at node 0).
    """
    grid = state.grid
    dt = state.dt
    start, stop = flow.nodes.start, flow.nodes.stop
    rhs = lame_apply(grid, state.u[start:stop], state.params) + nonlinearity_f(state, flow)
    if rhs_before is None:
        ends, u = rhs, state.u[start:stop]
    else:
        ends, u = np.concatenate([rhs_before[None], rhs]), state.u[start - 1 : stop]
    defect = state.rho0.rho * (u[1:] - u[:-1]) / dt - _THETA * ends[1:] - (1.0 - _THETA) * ends[:-1]
    reps = besov_norm_reports(grid, defect, BesovIndex(grid.dim / p - 1.0, p))
    return [dt * rep.value for rep in reps], rhs[-1]


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
    """Eulerian fields (u, rho) at time node i, one of the flow map's nodes
    (negative i counts from the end of the trajectory): u(t, x) = u(t, Y(x))
    and rho(t, x) = rho0(Y(x)) / J(t, Y(x)), the mass-consistent transport
    (J rho-along-the-flow stays equal to rho0). Node 0 returns the data
    itself, (state.u[0], rho0), not copies."""
    i = range(len(state.t))[i]
    rho0 = state.rho0.rho
    if i == 0:
        return state.u[0], rho0
    grid = state.grid
    j = flow.nodes.index(i)
    y = invert_flow(grid, flow.disp[j])
    coeffs = spline_prefilter(grid, np.concatenate([state.u[i], (rho0 / flow.det[j])[None]]))
    both = interp_periodic(grid, y, coeffs)
    return both[:-1], both[-1]


@dataclass(frozen=True)
class DensityTransportReport:
    max_pointwise_defect: float  # of J * rho(t, X(t, y)) = rho0(y), relative
    max_mass_defect: float  # of int rho(t) = int rho0, relative


def density_transport_check(state: LagrangianState, flow: FlowMapData) -> DensityTransportReport:
    """Worst defects over the flow map's time nodes of the transported
    density: each node's pushforward_eulerian density, carried back along the
    flow, against state.rho0, and its mass against rho0's."""
    grid = state.grid
    rho0 = state.rho0
    mass0 = float(integral(grid, rho0.rho))
    scale = float(np.max(np.abs(rho0.rho)))
    worst_point = 0.0
    worst_mass = 0.0
    for j, i in enumerate(flow.nodes):
        _, rho = pushforward_eulerian(state, flow, i)
        rho_on_path = interp_periodic(grid, grid.coords + flow.disp[j], spline_prefilter(grid, rho))
        defect = np.max(np.abs(flow.det[j] * rho_on_path - rho0.rho)) / scale
        worst_point = max(worst_point, float(defect))
        mass = float(integral(grid, rho))
        worst_mass = max(worst_mass, abs(mass - mass0) / abs(mass0))
    return DensityTransportReport(worst_point, worst_mass)


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
    flow-map ranges; each is a reduction over the time nodes, formed in the
    order of one range over the whole trajectory, so it keeps its bits
    whatever the ranges.

    The flow budget is the L1-in-time Besov norm of regularity n/p of the
    velocity gradient: the flow stays a small perturbation of the identity
    while it is below c0. The sup-norm integral of the gradient is
    extrapolated past the horizon from the decay rate of its last two
    samples (it stays the plain integral when they do not decay).
    """
    grid = state.grid
    budget_idx = BesovIndex(grid.dim / p, p)
    budget, sups, terms = [], [], []
    det_min, det_max = np.inf, -np.inf
    worst_point = worst_mass = 0.0
    rhs = None
    for flow in _flow_ranges(state):
        budget += [r.value for r in besov_norm_reports(grid, flow.grad, budget_idx)]
        sups += [float(np.max(field_magnitude(grid, g))) for g in flow.grad]
        det_min = min(det_min, float(np.min(flow.det)))
        det_max = max(det_max, float(np.max(flow.det)))
        transport = density_transport_check(state, flow)
        worst_point = max(worst_point, transport.max_pointwise_defect)
        worst_mass = max(worst_mass, transport.max_mass_defect)
        step_terms, rhs = scheme_residual(state, flow, p, rhs)
        terms += step_terms
    u_final, rho_final = pushforward_eulerian(state, flow, -1)
    residual = 0.0
    for term in terms:  # one add per step in time order (sum() compensates on newer Pythons)
        residual += term
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
