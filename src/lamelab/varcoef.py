"""Time integration of rho(x) du/dt = L u + f with rough bounded rho.

The theta-scheme node-space system A = rho/dt - theta*L is symmetric positive
definite and is solved by conjugate gradients, preconditioned by the exact
inverse of P = a - theta*L at the mean density, a = mean(rho)/dt. On the
half spectrum the symbol of P is c0 I + c (xi~ xi~^T + N N^T) with
c0 = a + theta*mu*|xi|^2 and c = theta*(lam + mu), where xi~ and N are the
orthogonal pieces of the Nyquist rule (see operators). Two Sherman-Morrison
updates invert it in closed form:

    P^{-1} = (I - g_t xi~ xi~^T - g_n N N^T) / c0,  g = c / (c0 + c |.|^2),

and c0 + c |.|^2 >= a + theta*min(mu, nu)*|xi|^2 > 0. Because the inverse is
exact, A = P + R with R = rho/dt - a pointwise, and P applied to the search
direction follows the direction's own recurrence: each CG iteration costs one
forward and one inverse transform. The preconditioned spectrum is pinned
inside [m^2, 1/m^2], so iteration counts are mesh-independent. A dense
matrix-exponential oracle on small grids provides the independent
cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .grid import Grid, _check_field, fftn, ifftn, integral
from .operators import LameParams, lame_apply


class SolverConvergenceError(RuntimeError):
    """Inner CG failed to reach tolerance; carries the final residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True, eq=False)
class Coefficient:
    """Rough density rho with ellipticity certificate m <= rho <= 1/m, m in (0, 1]."""

    grid: Grid
    rho: np.ndarray
    m: float

    def __post_init__(self):
        if not (0.0 < self.m <= 1.0):
            raise ValueError(f"m must be in (0, 1], got {self.m}")
        rho = _check_field(self.grid, self.rho)
        if rho.shape != self.grid.shape:
            raise ValueError(f"rho must be a scalar field, got shape {rho.shape}")
        if not np.all(np.isfinite(rho)):
            raise ValueError("rho contains non-finite samples")
        slack = 1e-12 / self.m
        if np.min(rho) < self.m - slack or np.max(rho) > 1.0 / self.m + slack:
            raise ValueError(
                f"rho range [{np.min(rho):.6g}, {np.max(rho):.6g}] violates "
                f"[{self.m:.6g}, {1.0 / self.m:.6g}]"
            )

    @cached_property
    def b(self) -> np.ndarray:
        """Reciprocal density; b * rho = 1 nodewise by construction."""
        return 1.0 / self.rho

    @classmethod
    def constant(cls, grid: Grid, value: float = 1.0) -> "Coefficient":
        m = min(value, 1.0 / value)
        return cls(grid, np.full(grid.shape, float(value)), m)

    @classmethod
    def from_field(cls, grid: Grid, rho: np.ndarray, m: float) -> "Coefficient":
        return cls(grid, np.asarray(rho, dtype=float), m)


@dataclass(frozen=True)
class StepperConfig:
    """theta-scheme controls; theta = 1/2 is the second-order default."""

    dt: float
    theta: float = 0.5
    cg_tol: float = 1e-10
    cg_maxiter: int = 500
    operator: str = "spectral"  # or "stencil", for dense-oracle comparisons

    def __post_init__(self):
        if not (self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (0.5 <= self.theta <= 1.0):
            raise ValueError(f"theta must be in [1/2, 1], got {self.theta}")
        if not (self.cg_tol > 0):
            raise ValueError("cg tolerance must be positive")
        if self.operator not in ("spectral", "stencil"):
            raise ValueError(f"unknown operator {self.operator!r}")

    def with_dt(self, dt: float) -> "StepperConfig":
        return replace(self, dt=dt)


# -- spatial operators --------------------------------------------------------


def stencil_laplacian(grid: Grid, u: np.ndarray) -> np.ndarray:
    h2 = grid.spacing**2
    out = -2.0 * grid.dim * u.copy()
    for a in grid.spatial_axes:
        out += np.roll(u, 1, axis=a) + np.roll(u, -1, axis=a)
    return out / h2


def stencil_derivative(grid: Grid, u: np.ndarray, axis: int) -> np.ndarray:
    sp = grid.spatial_axes[axis]
    return (np.roll(u, -1, axis=sp) - np.roll(u, 1, axis=sp)) / (2.0 * grid.spacing)


def stencil_lame(grid: Grid, u: np.ndarray, params: LameParams) -> np.ndarray:
    """Second-order finite-difference mu*Lap + (lam+mu)*grad(div) on a vector field."""
    div = sum(stencil_derivative(grid, u[a], a) for a in range(grid.dim))
    grad_div = np.stack([stencil_derivative(grid, div, a) for a in range(grid.dim)])
    return params.mu * stencil_laplacian(grid, u) + (params.lam + params.mu) * grad_div


def _apply_operator(grid: Grid, u: np.ndarray, params: LameParams, operator: str) -> np.ndarray:
    if operator == "spectral":
        return lame_apply(grid, u, params)
    return stencil_lame(grid, u, params)


def _preconditioner(grid: Grid, params: LameParams, a: float, theta: float):
    """Exact inverse of a - theta*L per frequency (module docstring), as a
    function of the residual. The inverse symbol is built once, here; each
    application costs one forward and one inverse transform."""
    xi, ny = grid.rfreq, grid.rnyquist
    c0 = a + theta * params.mu * grid.rfreq_sq
    c = theta * (params.lam + params.mu)
    inv = np.zeros((grid.dim,) + xi.shape)
    for k in range(grid.dim):
        inv[k, k] = 1.0
    for piece in (np.where(ny, 0.0, xi), np.where(ny, xi, 0.0)):  # xi~, then N
        g = c / (c0 + c * np.sum(piece**2, axis=0))
        inv -= g * np.einsum("a...,b...->ab...", piece, piece)
    inv /= c0
    return lambda r: ifftn(grid, np.sum(inv * fftn(grid, r)[None], axis=1))


def _pcg(matvec, psolve, remainder, b: np.ndarray, x: np.ndarray, rtol: float, maxiter: int):
    """Preconditioned conjugate gradients for A = P + R from the guess x (updated in place).

    psolve applies P^{-1} exactly, so w = P p follows the recurrence of the
    search direction p = z + beta p: w = r + beta w, and A p = w + R p costs
    no application of A. matvec (A) is used only for the initial residual.
    Same stopping rule as scipy.sparse.linalg.cg: stop when
    ||r|| < rtol * ||b||, checked before each of at most maxiter iterations.
    Returns (x, iterations), iterations None when the rule was never met.
    """
    atol = rtol * np.linalg.norm(b)
    if atol == 0.0:
        return np.zeros_like(b), 0
    r = b - matvec(x) if x.any() else b.copy()
    rz_prev = p = w = None
    for it in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, it
        z = psolve(r)
        rz = np.vdot(r, z)
        if p is None:
            p, w = z, r.copy()
        else:
            beta = rz / rz_prev
            p = z + beta * p
            w = r + beta * w
        q = w + remainder(p)
        alpha = rz / np.vdot(p, q)
        x += alpha * p
        r -= alpha * q
        rz_prev = rz
    return x, None


def theta_step(
    grid: Grid,
    rho: np.ndarray,
    params: LameParams,
    u_old: np.ndarray,
    dt: float,
    cfg: StepperConfig,
    f_bar: np.ndarray | None = None,
    u_guess: np.ndarray | None = None,
) -> np.ndarray:
    """One implicit theta step of rho du/dt = L u + f; returns u at t + dt."""
    theta = cfg.theta
    rhs = rho * u_old / dt + (1.0 - theta) * _apply_operator(grid, u_old, params, cfg.operator)
    if f_bar is not None:
        rhs = rhs + f_bar
    a = float(np.mean(rho)) / dt
    psolve = _preconditioner(grid, params, a, theta)
    shift = rho / dt - a

    def matvec(u):
        return rho * u / dt - theta * _apply_operator(grid, u, params, cfg.operator)

    def remainder(u):  # A - P
        if cfg.operator == "spectral":
            return shift * u
        return shift * u - theta * (stencil_lame(grid, u, params) - lame_apply(grid, u, params))

    x0 = u_guess if u_guess is not None else u_old
    x, iterations = _pcg(matvec, psolve, remainder, rhs, np.array(x0, dtype=float), cfg.cg_tol, cfg.cg_maxiter)
    if iterations is None:
        residual = float(np.linalg.norm(matvec(x) - rhs) / np.linalg.norm(rhs))
        raise SolverConvergenceError(
            f"CG stalled after {cfg.cg_maxiter} iterations (relative residual {residual:.3e})",
            residual,
        )
    return x


def _sample_at(samples, t_grid, t):
    """Linear-in-time sample of a t_grid-sampled field at an arbitrary time."""
    i = np.searchsorted(t_grid, t) - 1
    i = min(max(i, 0), len(t_grid) - 2)
    w = (t - t_grid[i]) / (t_grid[i + 1] - t_grid[i])
    return (1.0 - w) * samples[i] + w * samples[i + 1]


def evolve(
    coef: Coefficient,
    params: LameParams,
    u0: np.ndarray,
    t_grid,
    cfg: StepperConfig,
    forcing: np.ndarray | None = None,
    guess: np.ndarray | None = None,
) -> np.ndarray:
    """Integrate rho du/dt = L u + f, returning samples at every t_grid node.

    Each t_grid interval is subdivided into uniform steps no longer than
    cfg.dt. Forcing, when given, is sampled on t_grid and interpolated
    linearly at interior step times. guess, a trajectory sampled like the
    output (such as the previous iterate of a fixed point), is sampled the
    same way as each step's CG starting point; without it CG starts from the
    previous step.
    """
    grid = coef.grid
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid[0] != 0.0 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing and start at 0")
    u = np.asarray(u0, dtype=float)
    if u.shape != (grid.dim,) + grid.shape:
        raise ValueError(f"u0 must be a vector field, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("u0 contains non-finite samples")
    if forcing is not None:
        forcing = np.asarray(forcing, dtype=float)
        if forcing.shape != (len(t_grid),) + u.shape:
            raise ValueError("forcing must be sampled on t_grid with u0's field shape")
        if not np.all(np.isfinite(forcing)):
            raise ValueError("forcing contains non-finite samples")
    if guess is not None and np.shape(guess) != (len(t_grid),) + u.shape:
        raise ValueError("guess must be sampled on t_grid with u0's field shape")

    out = np.empty((len(t_grid),) + u.shape)
    out[0] = u
    theta = cfg.theta
    for i in range(len(t_grid) - 1):
        span = t_grid[i + 1] - t_grid[i]
        nsub = max(1, int(np.ceil(span / cfg.dt - 1e-12)))
        dt = span / nsub
        t = t_grid[i]
        for _ in range(nsub):
            f_bar = None
            if forcing is not None:
                f_new = _sample_at(forcing, t_grid, t + dt)
                f_old = _sample_at(forcing, t_grid, t)
                f_bar = theta * f_new + (1.0 - theta) * f_old
            u_guess = None if guess is None else _sample_at(guess, t_grid, t + dt)
            u = theta_step(grid, coef.rho, params, u, dt, cfg, f_bar=f_bar, u_guess=u_guess)
            t += dt
        out[i + 1] = u
    return out


# -- dense oracle --------------------------------------------------------------

_DENSE_DOF_LIMIT = 4096


def dense_lame_matrix(grid: Grid, params: LameParams) -> np.ndarray:
    """Dense matrix of the finite-difference elastic operator on flattened fields."""
    ndof = grid.dim * grid.size
    if ndof > _DENSE_DOF_LIMIT:
        raise ValueError(f"dense oracle limited to {_DENSE_DOF_LIMIT} dof, got {ndof}")
    shape = (grid.dim,) + grid.shape
    mat = np.empty((ndof, ndof))
    basis = np.zeros(shape)
    for j in range(ndof):
        basis.ravel()[j] = 1.0
        mat[:, j] = stencil_lame(grid, basis, params).ravel()
        basis.ravel()[j] = 0.0
    return mat


def dense_semigroup_matrix(coef: Coefficient, params: LameParams, t: float) -> np.ndarray:
    """Dense matrix of exp(t * b * L) via eigendecomposition in the rho-weighted metric.

    sqrt(b) * L * sqrt(b) is symmetric, so b*L = D_sqrtb M D_sqrtb^{-1} with M
    symmetric; the exponential is D_sqrtb V e^{t Lam} V^T D_sqrtb^{-1}.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    grid = coef.grid
    lame = dense_lame_matrix(grid, params)
    sqrt_b = np.sqrt(np.broadcast_to(coef.b, (grid.dim,) + grid.shape)).ravel()
    sym = sqrt_b[:, None] * lame * sqrt_b[None, :]
    sym = 0.5 * (sym + sym.T)  # scrub rounding asymmetry before eigh
    lam, vec = np.linalg.eigh(sym)
    core = (vec * np.exp(t * lam)) @ vec.T
    return sqrt_b[:, None] * core / sqrt_b[None, :]


def dense_oracle_expm(coef: Coefficient, params: LameParams, u0: np.ndarray, t: float) -> np.ndarray:
    """Apply the dense matrix exponential of b*L to u0 (small grids only)."""
    u0 = np.asarray(u0, dtype=float)
    mat = dense_semigroup_matrix(coef, params, t)
    return (mat @ u0.ravel()).reshape(u0.shape)


# -- diagnostics ----------------------------------------------------------------


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


def momentum_integral(coef: Coefficient, u: np.ndarray) -> np.ndarray:
    """int rho u dx, the quantity conserved by the unforced flow."""
    return integral(coef.grid, coef.rho * u)
