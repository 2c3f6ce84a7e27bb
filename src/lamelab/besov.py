"""Discrete Littlewood-Paley blocks, homogeneous Besov norms, and their
heat-semigroup characterizations.

Norms are homogeneous: the zero mode is always excluded and fields are
recentered to zero mean before evaluation. A norm whose dyadic sum leans on
the first or last resolvable block is flagged (the grid cannot certify it).

Each norm is a weighting of a profile that does not depend on s: the block
norms ||block_j u||_p (besov_level_norms) weighted by 2^(j*s)
(besov_weighting), and the semigroup profile ||(tG)^k e^{tG} u||_p at the time
nodes (heat_profile) weighted by t^(-s/2) (heat_char_weighting). A caller
that needs several s takes each profile once.

Blocks live on the half spectrum of the real FFT (grid.fftn/ifftn), like every
other spectral operation. The masks depend on |xi| only, so they are even and
need no Nyquist rule; the p = 2 Plancherel sum weights each half-spectrum
column by grid.rmultiplicity, the number of full-spectrum modes it stands for.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .grid import Grid, fftn, ifftn, lp_norm, mean_free
from .operators import Generator, ScaledLaplacian, _spectral_parts, _weighted_from_parts


class BoundaryLeakageWarning(UserWarning):
    """More than 1% of a dyadic sum sits in the first or last resolvable block."""


@dataclass(frozen=True)
class BesovIndex:
    """Regularity/integrability indices (s, p, r) of a homogeneous Besov norm."""

    s: float
    p: float
    r: float = 1.0

    def __post_init__(self):
        if not (1.0 <= self.p):
            raise ValueError(f"p must be in [1, inf], got {self.p}")
        if not (1.0 <= self.r):
            raise ValueError(f"r must be in [1, inf], got {self.r}")
        if abs(self.s) >= 2.0:
            raise ValueError(f"|s| must be < 2 for the k <= 1 heat characterizations, got {self.s}")


def _smooth_cutoff(r: np.ndarray) -> np.ndarray:
    """Radial low-pass profile: 1 for r <= 1, 0 for r >= 2, cosine-smoothed between."""
    out = np.zeros_like(r)
    out[r <= 1.0] = 1.0
    mid = (r > 1.0) & (r < 2.0)
    out[mid] = np.cos(0.5 * np.pi * (r[mid] - 1.0)) ** 2
    return out


@dataclass(frozen=True)
class DyadicPartition:
    """Smooth dyadic partition of unity on the grid's resolvable annuli.

    chi_j(r) = theta(r/2^j) - theta(r/2^(j-1)) is supported in
    [2^(j-1), 2^(j+1)]; the blocks telescope so that sum_j chi_j = 1 exactly
    on every resolvable nonzero frequency.
    """

    grid: Grid
    j_min: int
    j_max: int
    masks: tuple = field(repr=False)

    @classmethod
    def for_grid(cls, grid: Grid) -> "DyadicPartition":
        xi_min = 2.0 * np.pi / grid.extent
        xi_max = math.sqrt(grid.dim) * np.pi * grid.n / grid.extent
        j_min = math.floor(math.log2(xi_min))
        j_max = math.ceil(math.log2(xi_max))
        r = np.sqrt(grid.rfreq_sq)
        masks = []
        for j in range(j_min, j_max + 1):
            chi = _smooth_cutoff(r / 2.0**j) - _smooth_cutoff(r / 2.0 ** (j - 1))
            chi[grid.rfreq_sq == 0.0] = 0.0
            masks.append(chi)
        return cls(grid, j_min, j_max, tuple(masks))

    @property
    def levels(self) -> range:
        return range(self.j_min, self.j_max + 1)

    def mask(self, j: int) -> np.ndarray:
        if not self.j_min <= j <= self.j_max:
            raise ValueError(f"block {j} outside resolvable range [{self.j_min}, {self.j_max}]")
        return self.masks[j - self.j_min]


@lru_cache(maxsize=8)
def _partition_cache(grid: Grid) -> DyadicPartition:
    return DyadicPartition.for_grid(grid)


def default_partition(grid: Grid) -> DyadicPartition:
    return _partition_cache(grid)


def dyadic_block(grid: Grid, u: np.ndarray, j: int, partition: DyadicPartition | None = None) -> np.ndarray:
    """Frequency-localize u to dyadic level j (the zero mode is always dropped)."""
    part = partition or default_partition(grid)
    return ifftn(grid, part.mask(j) * fftn(grid, u))


@dataclass(frozen=True)
class NormReport:
    """A norm value with its per-level breakdown and boundary-leakage fraction."""

    value: float
    leakage: float
    per_level: tuple


def _aggregate(levels: np.ndarray, r: float) -> float:
    if np.isinf(r):
        return float(np.max(levels)) if levels.size else 0.0
    return float(np.sum(levels**r) ** (1.0 / r))


def besov_level_norms(
    grid: Grid, u: np.ndarray, p: float, partition: DyadicPartition | None = None
) -> np.ndarray:
    """||block_j u||_p for each level j of the partition (free of s)."""
    part = partition or default_partition(grid)
    u_hat = fftn(grid, u)
    if p == 2.0:
        # Plancherel shortcut: ||chi_j u||_2 without inverse transforms
        comp_axes = tuple(range(u_hat.ndim - grid.dim))
        power = np.sum(np.abs(u_hat) ** 2, axis=comp_axes) if comp_axes else np.abs(u_hat) ** 2
        power *= grid.rmultiplicity
        vol = grid.cell_volume / grid.size
        return np.array([np.sqrt(vol * np.sum(part.mask(j) ** 2 * power)) for j in part.levels])
    return np.array([lp_norm(grid, ifftn(grid, part.mask(j) * u_hat), p) for j in part.levels])


def besov_weighting(partition: DyadicPartition, level_norms: np.ndarray, idx: BesovIndex) -> NormReport:
    """Weight level norms from besov_level_norms by 2^(j*s) and take their l^r sum."""
    per = np.array([2.0 ** (j * idx.s) * n for j, n in zip(partition.levels, level_norms)])
    value = _aggregate(per, idx.r)
    total = float(np.sum(per))
    leakage = (per[0] + per[-1]) / total if total > 0 else 0.0
    return NormReport(value, float(leakage), tuple(per))


def besov_norm_report(
    grid: Grid, u: np.ndarray, idx: BesovIndex, partition: DyadicPartition | None = None
) -> NormReport:
    part = partition or default_partition(grid)
    return besov_weighting(part, besov_level_norms(grid, u, idx.p, part), idx)


def besov_norm(
    grid: Grid, u: np.ndarray, idx: BesovIndex, partition: DyadicPartition | None = None
) -> float:
    """Homogeneous Besov norm: l^r over j of 2^(j*s) * ||block_j u||_p."""
    rep = besov_norm_report(grid, u, idx, partition)
    if rep.leakage > 0.01:
        warnings.warn(
            f"boundary blocks carry {rep.leakage:.1%} of the dyadic sum; "
            f"resolution insufficient for s={idx.s}, p={idx.p}",
            BoundaryLeakageWarning,
            stacklevel=2,
        )
    return rep.value


def _min_diffusivity(gen: Generator) -> float:
    if isinstance(gen, ScaledLaplacian):
        return gen.c
    return min(gen.mu, gen.nu)


def _geometric_nodes(t_lo: float, t_hi: float) -> np.ndarray:
    count = math.ceil(2.0 * math.log2(t_hi / t_lo)) + 1
    return t_lo * 2.0 ** (0.5 * np.arange(count))


def heat_time_nodes(grid: Grid, gen: Generator) -> np.ndarray:
    """Geometric quadrature nodes (ratio sqrt 2) covering the grid-resolvable
    scales, from t = h^2/c to t = L^2/c with c the smallest diffusivity.

    This is the resolvable range only; the heat characterization and the
    norm-equivalence probes integrate over all t > 0 and extend it (see
    extended_time_nodes).
    """
    c = _min_diffusivity(gen)
    return _geometric_nodes(grid.spacing**2 / c, grid.extent**2 / c)


def extended_time_nodes(grid: Grid, gen: Generator, above: float = 1.0) -> np.ndarray:
    """heat_time_nodes extended 256 times below its first node and `above`
    times over its last, on the same sqrt 2 ratio."""
    base = heat_time_nodes(grid, gen)
    return _geometric_nodes(base[0] / 256.0, base[-1] * above)


def heat_profile(
    grid: Grid, u: np.ndarray, p: float, k: int, gen: Generator, t_nodes: np.ndarray | None = None
) -> tuple:
    """Quadrature nodes and ||(tG)^k e^{tG} u||_p at each node (free of s).

    The default nodes are extended_time_nodes(grid, gen); see heat_char_norm.
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got k={k}")
    nodes = extended_time_nodes(grid, gen) if t_nodes is None else np.asarray(t_nodes)
    parts = _spectral_parts(grid, mean_free(grid, u), gen)
    profile = np.array([lp_norm(grid, _weighted_from_parts(grid, parts, gen, t, k), p) for t in nodes])
    return nodes, profile


def heat_char_weighting(nodes: np.ndarray, profile: np.ndarray, s: float, q: float) -> NormReport:
    """Weight a heat_profile by t^(-s/2) and take its L^q(dt/t) quadrature;
    per_level holds the weighted profile at each node."""
    g = np.array([t ** (-s / 2.0) * v for t, v in zip(nodes, profile)])
    w = 0.5 * math.log(2.0)  # dt/t per geometric node
    if np.isinf(q):
        value = float(np.max(g))
    else:
        value = float((w * np.sum(g**q)) ** (1.0 / q))
    total = float(np.sum(g))
    leakage = (g[0] + g[-1]) / total if total > 0 else 0.0
    return NormReport(value, float(leakage), tuple(g))


def heat_char_norm_report(
    grid: Grid,
    u: np.ndarray,
    s: float,
    p: float,
    q: float,
    k: int,
    gen: Generator,
    t_nodes: np.ndarray | None = None,
) -> NormReport:
    """Time profile and quadrature of the heat characterization (see
    heat_char_norm); per_level holds the weighted profile at each node."""
    if not (k > s / 2.0 and k >= 0):
        raise ValueError(f"need k > s/2 and k >= 0, got k={k}, s={s}")
    if not q > 0:
        raise ValueError(f"need q > 0, got q={q}")
    return heat_char_weighting(*heat_profile(grid, u, p, k, gen, t_nodes), s, q)


def heat_char_norm(
    grid: Grid,
    u: np.ndarray,
    s: float,
    p: float,
    q: float,
    k: int,
    gen: Generator,
    t_nodes: np.ndarray | None = None,
) -> float:
    """Besov-equivalent norm from the time profile of (tG)^k e^{tG} u.

    Quadrature of || t^{-s/2} ||(tG)^k e^{tG} u||_p ||_{L^q(dt/t)} on a
    geometric grid; exponentially accurate for these log-smooth integrands.
    The integral runs over all t > 0 (Bahouri-Chemin-Danchin 2011,
    Thm 2.34). The default nodes start 256 times below the resolvable range
    of heat_time_nodes and end at its top, t = L^2/c: at t = h^2/c the
    profile of a field in the middle bands is still large (e^{tG} is far
    from 1 there), so cutting the integral at that node makes the norm
    depend on h.
    """
    rep = heat_char_norm_report(grid, u, s, p, q, k, gen, t_nodes)
    if rep.leakage > 0.01:
        warnings.warn(
            f"boundary time nodes carry {rep.leakage:.1%} of the semigroup profile",
            BoundaryLeakageWarning,
            stacklevel=2,
        )
    return rep.value


def multiplier_ratio(grid: Grid, rho: np.ndarray, idx: BesovIndex, test_fields) -> float:
    """Empirical multiplier norm: sup over the test set of ||rho*u|| / ||u||.

    A lower estimate of the operator norm of pointwise multiplication by rho
    on the Besov space.
    """
    test_fields = list(test_fields)
    if not test_fields:
        raise ValueError("test set must be nonempty")
    part = default_partition(grid)
    worst = 0.0
    for u in test_fields:
        u = mean_free(grid, u)
        denom = besov_norm_report(grid, u, idx, part).value
        if denom == 0.0:
            raise ValueError("test field with zero Besov norm")
        num = besov_norm_report(grid, rho * u, idx, part).value
        worst = max(worst, num / denom)
    return worst


def product_law_ratio(grid: Grid, u: np.ndarray, v: np.ndarray, p: float, mixed: bool = False) -> float:
    """Observed constant in the Besov product law.

    Plain form: ||uv|| / (||u|| ||v||) at regularity n/p for all three norms.
    Mixed form pairs regularity n/p on u with n/p - 1 on v and the product.
    """
    part = default_partition(grid)
    s_high = grid.dim / p
    idx_high = BesovIndex(s_high, p, 1.0)
    if mixed:
        idx_low = BesovIndex(s_high - 1.0, p, 1.0)
        nu = besov_norm_report(grid, u, idx_high, part).value
        nv = besov_norm_report(grid, v, idx_low, part).value
        npr = besov_norm_report(grid, mean_free(grid, u * v), idx_low, part).value
    else:
        nu = besov_norm_report(grid, u, idx_high, part).value
        nv = besov_norm_report(grid, v, idx_high, part).value
        npr = besov_norm_report(grid, mean_free(grid, u * v), idx_high, part).value
    if nu == 0.0 or nv == 0.0:
        raise ValueError("product law ratio undefined for zero-norm factors")
    return npr / (nu * nv)
