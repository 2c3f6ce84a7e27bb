"""Time integration of rho(x) du/dt = L u + f with rough bounded rho.

Every step is Crank-Nicolson (theta = 1/2). Its node-space system
A = rho/dt - L/2 is symmetric positive definite and is solved by conjugate
gradients, preconditioned by the exact inverse of P = a - L/2 at the mean
density, a = mean(rho)/dt: the symbol function f = 1/(a + z/2) of the
eigen-decomposition of -L^ (see operators), a dense dim x dim matrix per mode
built once per step size. Its eigenvalues are >= a > 0. As the inverse is
exact, A = P + R with R = rho/dt - a pointwise, and P applied to the search
direction follows the direction's own recurrence: each CG iteration costs one
forward and one inverse transform. The preconditioned spectrum is pinned
inside [m^2, 1/m^2], so iteration counts are mesh-independent. On small
grids a dense matrix exponential of the same spectral operator, taken by
eigendecomposition, is the independent check on the stepping.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .grid import Grid, _check_field, fftn, ifftn
from .operators import LameParams, _symbol_matrix, lame_apply


class SolverConvergenceError(RuntimeError):
    """Inner CG failed to reach tolerance; carries the final residual and, when
    raised by evolve, the index (from 1) of the step that stalled and the time
    it was stepping to (None from a lone theta_step)."""

    def __init__(self, message: str, residual: float, step: int | None, time: float | None):
        super().__init__(message)
        self.residual = residual
        self.step = step
        self.time = time


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


# Every step is Crank-Nicolson, and its CG raises SolverConvergenceError past _CG_MAXITER iterations.
_THETA = 0.5
_CG_MAXITER = 500
# Degree of the polynomial in time that evolve extrapolates to start each step's
# CG: the Lagrange polynomial through the last _PREDICTOR_ORDER + 1 states.
_PREDICTOR_ORDER = 3


@dataclass(frozen=True)
class StepperConfig:
    """Largest step dt and the CG tolerance, relative to the right-hand side."""

    dt: float
    cg_tol: float = 1e-10

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be a finite number > 0, got {self.dt}")
        if not (0 < self.cg_tol < 1):  # relative to ||b||: from 1 up CG may stop before iterating
            raise ValueError(f"cg tolerance must be in (0, 1), got {self.cg_tol}")

    def with_dt(self, dt: float) -> "StepperConfig":
        return replace(self, dt=dt)


@lru_cache(maxsize=8)
def _preconditioner(grid: Grid, params: LameParams, a: float):
    """Exact inverse of a - L/2 per frequency (module docstring), as a function
    of the residual, built once per distinct a and kept for 8 (the steps of one
    linspace alternate in the last bit). Each application costs two transforms."""
    inv = _symbol_matrix(grid, params, lambda z: 1.0 / (a + _THETA * z))
    return lambda r: ifftn(grid, np.sum(inv * fftn(grid, r)[None], axis=1))


def _norm(u: np.ndarray) -> float:
    """Euclidean norm over all entries, summed in a fixed order (see _pcg)."""
    return np.sqrt(np.sum(u * u))


def _pcg(matvec, psolve, remainder, b: np.ndarray, x: np.ndarray, rtol: float, maxiter: int):
    """Preconditioned conjugate gradients for A = P + R from the guess x (updated in place).

    psolve applies P^{-1} exactly, so w = P p follows the recurrence of the
    search direction p = z + beta p: w = r + beta w, and A p = w + R p costs
    no application of A. matvec (A) is used only for the initial residual.
    Same stopping rule as scipy.sparse.linalg.cg: stop when
    ||r|| < rtol * ||b||, checked before each of at most maxiter iterations.
    Returns (x, iterations), iterations None when the rule was never met.
    Inner products are np.sum of the elementwise product, not BLAS, whose
    summation order (and so the last bits) follows its thread count.
    """
    atol = rtol * _norm(b)
    if atol == 0.0:
        return np.zeros_like(b), 0
    r = b - matvec(x) if x.any() else b.copy()
    rz_prev = p = w = None
    for it in range(maxiter):
        if _norm(r) < atol:
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


def theta_step(
    grid: Grid,
    rho: np.ndarray,
    params: LameParams,
    u_old: np.ndarray,
    dt: float,
    cg_tol: float,
    f_bar: np.ndarray | None = None,
    u_guess: np.ndarray | None = None,
) -> np.ndarray:
    """One Crank-Nicolson step of rho du/dt = L u + f; returns u at t + dt."""
    rhs = rho * u_old / dt + (1.0 - _THETA) * lame_apply(grid, u_old, params)
    if f_bar is not None:
        rhs = rhs + f_bar
    a = float(np.mean(rho)) / dt
    psolve = _preconditioner(grid, params, a)
    shift = rho / dt - a

    def matvec(u):
        return rho * u / dt - _THETA * lame_apply(grid, u, params)

    def remainder(u):  # A - P
        return shift * u

    x0 = u_guess if u_guess is not None else u_old
    x, iterations = _pcg(matvec, psolve, remainder, rhs, np.array(x0, dtype=float), cg_tol, _CG_MAXITER)
    if iterations is None:
        residual = float(_norm(matvec(x) - rhs) / _norm(rhs))
        raise SolverConvergenceError(
            f"CG stalled after {_CG_MAXITER} iterations (relative residual {residual:.3e})",
            residual,
            None,
            None,
        )
    return x


def _sample_at(samples, t_grid, t):
    """Linear-in-time sample of a t_grid-sampled field at an arbitrary time."""
    i = np.searchsorted(t_grid, t) - 1
    i = min(max(i, 0), len(t_grid) - 2)
    w = (t - t_grid[i]) / (t_grid[i + 1] - t_grid[i])
    return (1.0 - w) * samples[i] + w * samples[i + 1]


def _extrapolate(history, t: float) -> np.ndarray:
    """Value at t of the Lagrange polynomial through the (t_j, d_j) of history,
    on the actual (possibly uneven) times t_j."""
    times = [tj for tj, _ in history]
    out = 0.0
    for j, (tj, dj) in enumerate(history):
        weight = 1.0
        for k, tk in enumerate(times):
            if k != j:
                weight *= (t - tk) / (tj - tk)
        out = out + weight * dj
    return out


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
    same way; without it the guess is zero. Each step's CG starts from the
    guess at the new time plus the polynomial extrapolation, in time, of the
    departures u - guess of the last _PREDICTOR_ORDER + 1 step states (fewer
    at the start: the first step starts from the guess plus u0's departure,
    u0 itself without a guess). A step whose CG stalls raises
    SolverConvergenceError with its step index and time.
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
    g = 0.0 if guess is None else _sample_at(guess, t_grid, 0.0)
    history = deque([(0.0, u - g)], maxlen=_PREDICTOR_ORDER + 1)  # (t_j, u_j - g(t_j))
    step = 0
    for i in range(len(t_grid) - 1):
        span = t_grid[i + 1] - t_grid[i]
        nsub = max(1, int(np.ceil(span / cfg.dt - 1e-12)))
        dt = span / nsub
        t = t_grid[i]
        for _ in range(nsub):
            t_new = t + dt
            f_bar = None
            if forcing is not None:
                f_new = _sample_at(forcing, t_grid, t_new)
                f_old = _sample_at(forcing, t_grid, t)
                f_bar = _THETA * f_new + (1.0 - _THETA) * f_old
            g = 0.0 if guess is None else _sample_at(guess, t_grid, t_new)
            step += 1
            try:
                start = g + _extrapolate(history, t_new)
                u = theta_step(grid, coef.rho, params, u, dt, cfg.cg_tol, f_bar=f_bar, u_guess=start)
            except SolverConvergenceError as err:
                where = f"step {step} (t = {t_new:.6g})"
                raise SolverConvergenceError(f"{where}: {err}", err.residual, step, t_new) from err
            t = t_new
            history.append((t, u - g))
        out[i + 1] = u
    return out


# -- dense oracle --------------------------------------------------------------

_DENSE_DOF_LIMIT = 4096


def dense_dof(grid: Grid) -> int:
    """Unknowns of a dense oracle on grid; raises ValueError above the limit."""
    ndof = grid.dim * grid.size
    if ndof > _DENSE_DOF_LIMIT:
        raise ValueError(f"dense oracle limited to {_DENSE_DOF_LIMIT} dof, got {ndof}")
    return ndof


def dense_lame_matrix(grid: Grid, params: LameParams) -> np.ndarray:
    """Dense matrix of the spectral elastic operator (lame_apply, the operator
    theta_step steps) on flattened fields, one basis vector per column."""
    ndof = dense_dof(grid)
    shape = (grid.dim,) + grid.shape
    mat = np.empty((ndof, ndof))
    basis = np.zeros(shape)
    for j in range(ndof):
        basis.ravel()[j] = 1.0
        mat[:, j] = lame_apply(grid, basis, params).ravel()
        basis.ravel()[j] = 0.0
    return mat


def dense_semigroup_matrices(coef: Coefficient, params: LameParams, times):
    """Dense matrices of exp(t * b * L), one per t of times, in order, from one
    eigendecomposition in the rho-weighted metric.

    sqrt(b) * L * sqrt(b) is symmetric, so b*L = D_sqrtb M D_sqrtb^{-1} with M
    symmetric; the exponential is D_sqrtb V e^{t Lam} V^T D_sqrtb^{-1}. The
    decomposition is taken here; each matrix is formed when the returned
    iterator reaches its time, so only one is held at a time.
    """
    times = [float(t) for t in times]
    if min(times) < 0:
        raise ValueError("time must be nonnegative")
    grid = coef.grid
    lame = dense_lame_matrix(grid, params)
    sqrt_b = np.sqrt(np.broadcast_to(coef.b, (grid.dim,) + grid.shape)).ravel()
    sym = sqrt_b[:, None] * lame * sqrt_b[None, :]
    sym = 0.5 * (sym + sym.T)  # scrub rounding asymmetry before eigh
    lam, vec = np.linalg.eigh(sym)
    return (sqrt_b[:, None] * ((vec * np.exp(t * lam)) @ vec.T) / sqrt_b[None, :] for t in times)
