"""Fundamental-matrix extraction and the pointwise-bound verification suite.

Columns of the solution kernel K_t(., y0) are computed by evolving discrete
deltas; envelopes are fitted to shell maxima of the symmetrized kernel
S_t = K_t * b(y0) against |x - y0|^2 / t, matching the one-sided nature of
the bounds being checked (upper envelopes, not means).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import delta_field
from .grid import Grid, integral, jacobian, lp_norm
from .operators import LameParams, const_semigroup
from .varcoef import Coefficient, StepperConfig, evolve


class EnvelopeFitError(RuntimeError):
    """The kernel data admit no Gaussian envelope fit: too few shells in the
    trust window, or no decay."""


def _entry_magnitude(slc: KernelSlice) -> np.ndarray:
    """Largest |entry| of the symmetrized kernel pointwise (the bounds are per entry)."""
    return np.max(np.abs(slc.symmetrized), axis=(0, 1))


def _gradient_magnitude(slc: KernelSlice) -> np.ndarray:
    """Per entry of the symmetrized kernel, the Euclidean norm of its spectral
    x-gradient; then the largest entry pointwise. The entries are taken one
    at a time into a running maximum, so one entry's gradient is held, not
    the (dim, dim, dim, *shape) stack; the values are the stack's."""
    out = None
    for entry in slc.symmetrized.reshape((-1,) + slc.grid.shape):
        norm = np.sqrt(np.sum(jacobian(slc.grid, entry) ** 2, axis=0))
        out = norm if out is None else np.maximum(out, norm, out=out)
    return out


@dataclass(frozen=True, eq=False)
class KernelSlice:
    """One time slice of the kernel column family at a source node.

    kernel[i, k] is component i of the response to a unit impulse in
    direction k at y0. source_momentum[i, k] = int rho * u0^(k)_i dx is the
    discretely conserved momentum matrix of the initial columns; it equals
    rho(y0) * I exactly when the impulses are not pre-smoothed.
    """

    grid: Grid
    y0: tuple
    t: float
    kernel: np.ndarray  # (dim, dim, *shape)
    b_source: float
    source_momentum: np.ndarray  # (dim, dim)
    presmooth_t: float = 0.0

    @property
    def rho_source(self) -> float:
        return float(np.mean(np.diag(self.source_momentum)))

    @property
    def symmetrized(self) -> np.ndarray:
        """S_t(., y0) = K_t(., y0) * b(y0)."""
        return self.kernel * self.b_source


def torus_distance(grid: Grid, y0) -> np.ndarray:
    """Minimum-image distance field |x - y0| from a source node."""
    y = grid.coords[(slice(None),) + tuple(y0)].reshape((grid.dim,) + (1,) * grid.dim)
    return np.sqrt(np.sum(grid.min_image(grid.coords - y) ** 2, axis=0))


def check_kernel_times(grid: Grid, params: LameParams, t_list) -> list:
    """t_list as sorted floats; raises ValueError unless it is nonempty and every
    time is positive and at least the resolvable threshold 4 h^2 / nu."""
    t_list = sorted(float(t) for t in t_list)
    if not t_list or t_list[0] <= 0:
        raise ValueError("kernel times must be a nonempty list of positive times")
    t_min_ok = 4.0 * grid.spacing**2 / params.nu
    if t_list[0] < t_min_ok:
        raise ValueError(f"t = {t_list[0]} below resolvable threshold {t_min_ok:.3e}")
    return t_list


def kernel_column(
    coef: Coefficient,
    params: LameParams,
    y0,
    t_list,
    cfg: StepperConfig,
    presmooth: bool = False,
) -> list:
    """Evolve unit impulses at node y0 and assemble kernel slices at t_list.

    Optional pre-smoothing applies the constant-coefficient semigroup for
    2 h^2 to the delta before evolving (recorded on the slice, so oracles
    can fold the extra factor in).
    """
    grid = coef.grid
    y0 = tuple(int(i) for i in y0)
    t_list = check_kernel_times(grid, params, t_list)
    t_smooth = 2.0 * grid.spacing**2 if presmooth else 0.0

    delta = delta_field(grid, y0)
    columns = []
    momentum = np.empty((grid.dim, grid.dim))
    for k in range(grid.dim):
        u0 = np.zeros((grid.dim,) + grid.shape)
        u0[k] = delta
        if presmooth:
            u0 = const_semigroup(grid, u0, t_smooth, params)
        momentum[:, k] = integral(grid, coef.rho * u0)
        columns.append(evolve(coef, params, u0, [0.0] + t_list, cfg)[1:])

    b_source = float(coef.b[y0])
    slices = []
    for it, t in enumerate(t_list):
        kernel = np.stack([columns[k][it] for k in range(grid.dim)], axis=1)
        slices.append(KernelSlice(grid, y0, t, kernel, b_source, momentum.copy(), t_smooth))
    return slices


def conservation_defect(coef: Coefficient, slc: KernelSlice) -> float:
    """Relative defect of int rho K_t(., y0) dx against the conserved
    source momentum (rho(y0) * I for unsmoothed impulses)."""
    mat = integral(coef.grid, coef.rho * slc.kernel)
    return float(np.max(np.abs(mat - slc.source_momentum)) / slc.rho_source)


def symmetry_defect(slice_a: KernelSlice, slice_b: KernelSlice) -> float:
    """Max-norm of S_t(x0, y0) - S_t(y0, x0)^T, normalized by the larger entry.

    slice_a carries the column family at y0 (evaluated at slice_b's source),
    slice_b the family at x0 (evaluated at y0).
    """
    if slice_a.t != slice_b.t:
        raise ValueError("slices must share the evaluation time")
    s_xy = slice_a.symmetrized[(slice(None), slice(None)) + slice_b.y0]
    s_yx = slice_b.symmetrized[(slice(None), slice(None)) + slice_a.y0]
    scale = max(np.max(np.abs(s_xy)), np.max(np.abs(s_yx)))
    return float(np.max(np.abs(s_xy - s_yx.T)) / scale)


# -- envelope fitting -----------------------------------------------------------

_MIN_SHELLS = 10  # fewest shells per slice that a fit accepts


@dataclass(frozen=True)
class GaussianFit:
    """Fitted envelope t^w |field| <= amplitude * exp(-d^2 / (c_dec * t))."""

    amplitude: float
    c_dec: float
    r_squared: float
    max_exceedance: float
    n_shells: int
    shells: tuple  # rows (t, d, shell_max, model_value)

    def __post_init__(self):
        if not (self.amplitude > 0 and self.c_dec > 0):
            raise ValueError("fit produced a non-decaying envelope")


def _shell_points(slc: KernelSlice, weighted: np.ndarray):
    """Shell maxima of a weighted magnitude inside the trust window, in
    shells one grid spacing wide.

    Each shell reports the distance at which its max is achieved, so the
    (d^2/t, log max) pairs sample the envelope exactly rather than at the
    shell center."""
    grid = slc.grid
    d = torus_distance(grid, slc.y0)
    lo, hi = 2.0 * np.sqrt(slc.t), grid.extent / 4.0
    mask = (d >= lo) & (d <= hi)
    if not np.any(mask):
        return []
    bins = np.floor(d[mask] / grid.spacing).astype(int)
    vals = weighted[mask]
    dist = d[mask]
    rows = []
    for b in np.unique(bins):
        sel = bins == b
        k = np.argmax(vals[sel])
        rows.append((slc.t, float(dist[sel][k]), float(vals[sel][k])))
    return rows


def _fit_envelope(slices, magnitude, weight_power: float) -> GaussianFit:
    if len(slices) < 1:
        raise ValueError("need at least one slice")
    rows = []
    for slc in slices:
        weighted = slc.t**weight_power * magnitude(slc)
        pts = _shell_points(slc, weighted)
        if len(pts) < _MIN_SHELLS:
            raise EnvelopeFitError(
                f"trust window at t = {slc.t} holds {len(pts)} shells, need {_MIN_SHELLS}"
            )
        rows.extend(pts)
    z = np.array([d**2 / t for t, d, _ in rows])
    y = np.log(np.array([v for _, _, v in rows]))
    slope, intercept = np.polyfit(z, y, 1)
    if slope >= 0:
        raise EnvelopeFitError(f"no Gaussian decay: fitted slope {slope:.3e} is nonnegative")
    resid = y - (intercept + slope * z)
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    shells = tuple(
        (t, d, v, float(np.exp(intercept + slope * d**2 / t))) for (t, d, v) in rows
    )
    return GaussianFit(
        amplitude=float(np.exp(intercept)),
        c_dec=float(-1.0 / slope),
        r_squared=r_squared,
        max_exceedance=float(np.max(np.exp(resid)) - 1.0),
        n_shells=len(rows),
        shells=shells,
    )


def gaussian_fit(slices) -> GaussianFit:
    """Fit log t^{n/2} |S_t| against |x - y0|^2 / t over the trust window."""
    n = slices[0].grid.dim
    return _fit_envelope(slices, _entry_magnitude, n / 2.0)


def gradient_envelope(slices) -> GaussianFit:
    """Same pipeline on the spatial gradient with the t^{(n+1)/2} weight."""
    n = slices[0].grid.dim
    return _fit_envelope(slices, _gradient_magnitude, (n + 1) / 2.0)


# -- Davies twisted-norm probes ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class DaviesProbe:
    """Exponential twist weight phi = exp(psi_alpha) with certified slope bounds."""

    alpha: float
    psi: np.ndarray
    phi: np.ndarray


def davies_probe(grid: Grid, alpha: float) -> DaviesProbe:
    """Lowest-mode twist along the first axis, amplitude chosen so that
    |grad psi| <= alpha and |hess psi| <= alpha^2 hold on the grid."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    scale = grid.extent / (2.0 * np.pi)
    amp = min(alpha * scale, (alpha * scale) ** 2)
    psi = amp * np.sin(grid.coords[0] * 2.0 * np.pi / grid.extent)
    if alpha > 0:
        grad_max = amp / scale
        hess_max = amp / scale**2
        if grad_max > alpha * (1 + 1e-12) or hess_max > alpha**2 * (1 + 1e-12):
            raise ValueError("twist weight violates its slope constraints")
    with np.errstate(over="ignore"):
        phi = np.exp(psi)
    if not np.all(np.isfinite(phi)):
        raise ValueError(f"twist weight exp(psi) is not finite at alpha = {alpha}")
    return DaviesProbe(alpha, psi, phi)


@dataclass(frozen=True, eq=False)
class TwistReport:
    alphas: tuple
    times: tuple
    log_growth: tuple  # per alpha, array over times of log(||v(t)|| / ||u0||)
    growth_constant: float  # smallest C with g <= C (1 + alpha^2 t) over the scan


def davies_twisted_norm(
    coef: Coefficient,
    params: LameParams,
    probes,
    u0: np.ndarray,
    t_list,
    cfg: StepperConfig,
) -> TwistReport:
    """Growth of the twisted flow phi^{-1} e^{t b L} (phi u0) across an alpha
    scan, at the times of t_list in increasing order (check_kernel_times)."""
    grid = coef.grid
    t_list = check_kernel_times(grid, params, t_list)
    base = lp_norm(grid, u0, 2)
    if base == 0:
        raise ValueError("u0 must be nonzero")
    curves = []
    consts = []
    alphas = []
    for probe in probes:
        traj = evolve(coef, params, probe.phi * u0, [0.0] + t_list, cfg)[1:]
        g = np.array([np.log(lp_norm(grid, v / probe.phi, 2) / base) for v in traj])
        curves.append(tuple(g))
        consts.append(float(np.max(g / (1.0 + probe.alpha**2 * np.asarray(t_list)))))
        alphas.append(probe.alpha)
    return TwistReport(tuple(alphas), tuple(t_list), tuple(curves), float(max(consts)))
