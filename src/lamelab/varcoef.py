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

The unforced semigroup e^{t b L} x at a few times needs no stepping:
semigroup builds it by rational Krylov (Ruhe 1984; van den Eshof & Hochbruck
2006; Guttel 2013). b L is self-adjoint in the rho-weighted inner product, and
its shift-and-invert resolvent (rho - gamma L)^{-1} rho is the Crank-Nicolson
system above at dt = 2 gamma, so each Krylov vector is one preconditioned CG
solve and the iteration count stays mesh-independent. The Galerkin projection
H = V^T L V of b L on the rho-orthonormal basis V is exponentiated exactly,
from one eigendecomposition, for every requested time. The constant fields
are the kernel of b L and rho-orthogonal to its range: x's constant part is
carried exactly and every basis vector is projected off them, so the
rho-weighted integral (the momentum) is conserved to rounding. Its error is
the Krylov tolerance, with no time-step error.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .grid import Grid, _check_field, fftn, ifftn
from .operators import LameParams, _symbol_matrix, lame_apply


class SolverConvergenceError(RuntimeError):
    """Inner CG failed to reach tolerance, or the Krylov basis of semigroup did
    not converge; carries the final residual (the basis: its last change) and,
    when raised by evolve, the index (from 1) of the step that stalled and the
    time it was stepping to (None otherwise)."""

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


# Every step is Crank-Nicolson, and its CG raises SolverConvergenceError past
# _CG_MAXITER iterations. _CG_TOL is the CG tolerance of a StepperConfig that
# sets none and of every shift-and-invert solve of semigroup.
_THETA = 0.5
_CG_MAXITER = 500
_CG_TOL = 1e-10
# Degree of the polynomial in time that evolve extrapolates to start each step's
# CG: the Lagrange polynomial through the last _PREDICTOR_ORDER + 1 states.
_PREDICTOR_ORDER = 3


@dataclass(frozen=True)
class StepperConfig:
    """Largest step dt (of time_grid and evolve) and the CG tolerance, relative to the right-hand side."""

    dt: float
    cg_tol: float = _CG_TOL

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be a finite number > 0, got {self.dt}")
        if not (0 < self.cg_tol < 1):  # relative to ||b||: from 1 up CG may stop before iterating
            raise ValueError(f"cg tolerance must be in (0, 1), got {self.cg_tol}")


@lru_cache(maxsize=8)
def _preconditioner(grid: Grid, params: LameParams, a: float):
    """Exact inverse of a - L/2 per frequency (module docstring), as a function
    of the residual, built once per distinct a and kept for 8 (the steps of one
    linspace alternate in the last bit). Each application costs two transforms.
    The dense per-mode product is summed over its columns one term at a time
    into one spectrum-sized output, through one component-sized scratch, in
    the order np.sum over the column axis would take. The real symbol is stored
    complex once, so that no application casts it (same values and bits)."""
    inv = _symbol_matrix(grid, params, lambda z: 1.0 / (a + _THETA * z)).astype(complex)

    def psolve(r):
        r_hat = fftn(grid, r)
        out = np.empty_like(r_hat)
        term = np.empty_like(r_hat[0])
        for c in range(grid.dim):
            np.multiply(inv[c, 0], r_hat[0], out=out[c])
            for b in range(1, grid.dim):
                out[c] += np.multiply(inv[c, b], r_hat[b], out=term)
        return ifftn(grid, out)

    return psolve


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

    An iteration allocates only what psolve and remainder return (both must
    be new arrays: z becomes p, and R p becomes q). p, w, x and r are updated
    in place, and every elementwise product (of the inner products, alpha p
    and alpha q) is formed in one scratch vector allocated once per call.
    """
    atol = rtol * _norm(b)
    if atol == 0.0:
        return np.zeros_like(b), 0
    r = b - matvec(x) if x.any() else b.copy()
    scratch = np.empty_like(r)
    rz_prev = p = w = None
    for it in range(maxiter):
        if np.sqrt(np.sum(np.multiply(r, r, out=scratch))) < atol:
            return x, it
        z = psolve(r)
        rz = np.sum(np.multiply(r, z, out=scratch))
        if p is None:
            p, w = z, r.copy()
        else:
            beta = rz / rz_prev
            p *= beta
            p += z
            w *= beta
            w += r
        q = remainder(p)
        q += w
        alpha = rz / np.sum(np.multiply(p, q, out=scratch))
        x += np.multiply(p, alpha, out=scratch)
        r -= np.multiply(q, alpha, out=scratch)
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
    return _cn_solve(grid, rho, params, rhs, dt, cg_tol, u_guess if u_guess is not None else u_old)


def _cn_solve(grid: Grid, rho: np.ndarray, params: LameParams, rhs: np.ndarray, dt: float, cg_tol: float,
              x0: np.ndarray) -> np.ndarray:
    """Solve the Crank-Nicolson system (rho/dt - L/2) x = rhs by CG from x0
    (module docstring); raises SolverConvergenceError past _CG_MAXITER iterations."""
    a = float(np.mean(rho)) / dt
    psolve = _preconditioner(grid, params, a)
    shift = rho / dt - a

    def matvec(u):
        return rho * u / dt - _THETA * lame_apply(grid, u, params)

    def remainder(u):  # A - P
        return shift * u

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


def _steps(span: float, dt: float) -> int:
    """How an interval becomes steps: the fewest uniform ones of at most dt (to
    a relative 1e-12). Raises ValueError when span/dt is not a finite count."""
    ratio = float(span) / float(dt)
    if not np.isfinite(ratio):
        raise ValueError(f"an interval of {span:.6g} in steps of {dt:.6g} is not a finite step count")
    return max(1, int(np.ceil(ratio - 1e-12)))


def time_steps(T: float, dt: float) -> int:
    """The number of intervals of time_grid(T, dt), at least 2, without building
    its nodes (a config check); raises ValueError unless T is a finite time > 0
    and T/dt a finite count."""
    if not (np.isfinite(T) and T > 0):
        raise ValueError(f"T must be a finite time > 0, got {T}")
    return max(2, _steps(T, dt))


def time_grid(T: float, dt: float) -> np.ndarray:
    """Uniform nodes on [0, T] no more than dt apart, as evolve would step
    [0, T], and at least 3 of them (the centered time derivative of maxreg
    needs 3). Forcing and guesses of a solve are sampled on these nodes."""
    return np.linspace(0.0, T, time_steps(T, dt) + 1)


def evolve(
    coef: Coefficient,
    params: LameParams,
    u0: np.ndarray,
    t_grid,
    cfg: StepperConfig,
    forcing=None,
    guess: np.ndarray | None = None,
) -> np.ndarray:
    """Integrate rho du/dt = L u + f, returning samples at every t_grid node.

    Each t_grid interval is split into _steps(interval, cfg.dt) uniform steps.
    Forcing (each step takes the mean of its ends) and guess (a trajectory
    such as the previous iterate of a fixed point; zero without it) are
    sampled on t_grid, so they need one step per interval, as on time_grid's
    nodes. Forcing is any iterable of len(t_grid) fields (an ndarray, a
    generator), read once, in order, as the steps reach each node; a row's
    shape and finiteness are checked as it is read, and the row count when
    the rows or the steps run out. Each step's CG
    starts from the guess at the new time plus the polynomial extrapolation,
    in time, of the departures u - guess of the last _PREDICTOR_ORDER + 1
    step states (fewer at the start: the first step starts from the guess
    plus u0's departure, u0 itself without a guess). A step whose CG stalls
    raises SolverConvergenceError with its step index and time.
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
    if guess is not None and np.shape(guess) != (len(t_grid),) + u.shape:
        raise ValueError("guess must be sampled on t_grid with u0's field shape")
    spans = np.diff(t_grid)
    # a node is exact to a few ulps of its time; that rounding must not split a step
    nsubs = [_steps(span - 8 * np.finfo(float).eps * t, cfg.dt) for span, t in zip(spans, t_grid[1:])]
    if (forcing is not None or guess is not None) and max(nsubs, default=1) > 1:
        raise ValueError(f"forcing and guess need t_grid intervals of at most dt = {cfg.dt}, got {max(spans):.6g}")

    out = np.empty((len(t_grid),) + u.shape)
    out[0] = u
    g = 0.0 if guess is None else guess[0]
    history = deque([(0.0, u - g)], maxlen=_PREDICTOR_ORDER + 1)  # (t_j, u_j - g(t_j))
    rows = iter(() if forcing is None else forcing)

    def next_row():  # past the last row it reads None, whose shape () is wrong
        row = next(rows, None)
        if np.shape(row) != u.shape:
            raise ValueError("forcing must be sampled on t_grid with u0's field shape")
        if not np.all(np.isfinite(row)):
            raise ValueError("forcing contains non-finite samples")
        return np.asarray(row, dtype=float)

    step = 0
    f_next = None if forcing is None else next_row()
    for i, (span, nsub) in enumerate(zip(spans, nsubs)):
        dt = span / nsub
        t = t_grid[i]
        f_bar = None
        if forcing is not None:  # node i's row is the last step's f_next
            f_prev, f_next = f_next, next_row()
            f_bar = _THETA * f_next + (1.0 - _THETA) * f_prev
        g = 0.0 if guess is None else guess[i + 1]
        for _ in range(nsub):
            t_new = t + dt
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
    if next(rows, None) is not None:
        raise ValueError("forcing must be sampled on t_grid with u0's field shape")
    return out


# The Krylov basis of semigroup grows until the outputs at every requested time
# move by at most _KRYLOV_TOL times the rho-norm of x's non-constant part, and
# fails at _KRYLOV_MAXDIM vectors.
_KRYLOV_TOL = 1e-8
_KRYLOV_MAXDIM = 200


def semigroup(coef: Coefficient, params: LameParams, x: np.ndarray, times) -> np.ndarray:
    """e^{t b L} x at every t of times, in order, by rational Krylov (module docstring).

    x's rho-weighted mean per component is carried exactly; its remainder
    starts a rho-orthonormal basis V, each new vector (rho - gamma L)^{-1} rho
    applied to the last one, cycling through the poles gamma = (t_min/2) 10^k
    <= t_max, and rho-orthogonalized twice off V, then off the constants. The
    outputs are the mean plus beta V e^{tH} e_1, with H = V^T L V (symmetric,
    as rho b L = L) and beta the remainder's rho-norm. A stalled solve or a
    basis of _KRYLOV_MAXDIM vectors raises SolverConvergenceError.
    """
    grid = coef.grid
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not np.all(np.isfinite(times)) or np.any(times < 0):
        raise ValueError(f"times must be a list of finite times >= 0, got {times}")
    x = np.asarray(x, dtype=float)
    if x.shape != (grid.dim,) + grid.shape:
        raise ValueError(f"x must be a vector field, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("x contains non-finite samples")
    rho = coef.rho
    axes = grid.spatial_axes

    def constant_part(u):  # the rho-weighted mean per component: the rho-orthogonal projection on constants
        return np.sum(rho * u, axis=axes, keepdims=True) / np.sum(rho)

    def rho_norm(u):
        return np.sqrt(np.sum(rho * u * u))

    mean = constant_part(x)
    remainder = x - mean
    beta = rho_norm(remainder)
    positive = times[times > 0]
    if beta == 0.0 or not positive.size:
        return np.broadcast_to(x, times.shape + x.shape).copy()
    poles = [0.5 * positive.min()]
    while poles[-1] * 10.0 <= positive.max():
        poles.append(poles[-1] * 10.0)

    basis = np.empty((_KRYLOV_MAXDIM,) + x.shape)
    flat = basis.reshape(_KRYLOV_MAXDIM, -1)  # a view: inner products run over all entries
    basis[0] = remainder / beta
    H = np.zeros((_KRYLOV_MAXDIM, _KRYLOV_MAXDIM))
    H[0, 0] = np.sum(basis[0] * lame_apply(grid, basis[0], params))
    m, prev = 1, None
    while True:
        lam, q = np.linalg.eigh(H[:m, :m])
        coeffs = q @ (np.exp(np.outer(lam, times)) * q[0][:, None])  # e^{tH} e_1, one column per t
        if prev is not None:
            change = float(np.max(np.linalg.norm(coeffs - np.pad(prev, ((0, 1), (0, 0))), axis=0)))
            if change <= _KRYLOV_TOL:
                break
            if m == _KRYLOV_MAXDIM:
                raise SolverConvergenceError(
                    f"rational Krylov unconverged at {m} vectors (last change {change:.3e})", change, None, None
                )
        prev = coeffs
        gamma = poles[(m - 1) % len(poles)]
        dt = 2.0 * gamma  # rho - gamma L = dt (rho/dt - L/2): the Crank-Nicolson system at 2 gamma
        try:
            w = _cn_solve(grid, rho, params, rho * basis[m - 1] / dt, dt, _CG_TOL, basis[m - 1])
        except SolverConvergenceError as err:
            raise SolverConvergenceError(
                f"Krylov vector {m + 1} (pole {gamma:.6g}): {err}", err.residual, None, None
            ) from err
        before = rho_norm(w)
        for _ in range(2):
            w -= np.einsum("j,jn->n", np.einsum("jn,n->j", flat[:m], (rho * w).ravel()), flat[:m]).reshape(x.shape)
        w -= constant_part(w)  # last, so that its rounding is not magnified by the normalization
        size = rho_norm(w)
        if size <= np.finfo(float).eps * before:  # no new direction: the space is invariant
            break
        basis[m] = w / size
        lv = lame_apply(grid, basis[m], params).ravel()
        H[: m + 1, m] = H[m, : m + 1] = np.einsum("jn,n->j", flat[: m + 1], lv)
        m += 1
    return mean + beta * np.einsum("jk,jn->kn", coeffs, flat[:m]).reshape(times.shape + x.shape)


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
