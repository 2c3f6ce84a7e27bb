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
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .grid import Grid, fftn, ifftn, lp_norm, mean_free
from .operators import Generator, ScaledLaplacian, _apply, _heat, _spectral


@dataclass(frozen=True)
class BesovIndex:
    """Regularity/integrability indices (s, p) of a homogeneous Besov norm
    B^s_{p,1}: the level norms are summed (third index 1)."""

    s: float
    p: float

    def __post_init__(self):
        if not (1.0 <= self.p):
            raise ValueError(f"p must be in [1, inf], got {self.p}")
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


@lru_cache(maxsize=8)
def default_partition(grid: Grid) -> DyadicPartition:
    return DyadicPartition.for_grid(grid)


@dataclass(frozen=True)
class NormReport:
    """A norm value with its per-level breakdown and boundary-leakage fraction."""

    value: float
    leakage: float
    per_level: tuple


def besov_level_norms(grid: Grid, fields: np.ndarray, p: float) -> np.ndarray:
    """||block_j u||_p for each field u of a stack (leading axis of m fields) and
    each level j of the partition (free of s), shape (m, levels).

    One forward transform serves the whole stack; p != 2 takes one inverse
    transform of the stack per level.
    """
    part = default_partition(grid)
    u_hat = fftn(grid, fields)
    if p == 2.0:
        # Plancherel shortcut: ||chi_j u||_2 without inverse transforms
        power = np.abs(u_hat)
        power **= 2  # in place: a trajectory stack keeps one spectrum-sized temporary
        power = np.sum(power, axis=tuple(range(1, u_hat.ndim - grid.dim)))
        power *= grid.rmultiplicity
        vol = grid.cell_volume / grid.size
        levels = [np.sqrt(vol * np.sum(chi**2 * power, axis=grid.spatial_axes)) for chi in part.masks]
        return np.stack(levels, axis=1)
    return np.array([[lp_norm(grid, b, p) for b in ifftn(grid, chi * u_hat)] for chi in part.masks]).T


def besov_weighting(partition: DyadicPartition, level_norms: np.ndarray, idx: BesovIndex) -> NormReport:
    """Weight one field's level norms (a row of besov_level_norms) by 2^(j*s)
    and sum them."""
    per = np.array([2.0 ** (j * idx.s) * n for j, n in zip(partition.levels, level_norms)])
    value = float(np.sum(per))
    leakage = (per[0] + per[-1]) / value if value > 0 else 0.0
    return NormReport(value, float(leakage), tuple(per))


def besov_norm_reports(grid: Grid, fields: np.ndarray, idx: BesovIndex) -> list:
    """NormReport of each field of a stack (leading axis), from one pass of
    besov_level_norms; a trajectory is a stack of its time slices."""
    part = default_partition(grid)
    return [besov_weighting(part, row, idx) for row in besov_level_norms(grid, fields, idx.p)]


def besov_norm_report(grid: Grid, u: np.ndarray, idx: BesovIndex) -> NormReport:
    """besov_norm_reports of the stack of one field u."""
    return besov_norm_reports(grid, np.asarray(u)[None], idx)[0]


def _min_diffusivity(gen: Generator) -> float:
    if isinstance(gen, ScaledLaplacian):
        return gen.c
    return min(gen.mu, gen.nu)


def _geometric_nodes(t_lo: float, t_hi: float) -> np.ndarray:
    count = math.ceil(2.0 * math.log2(t_hi / t_lo)) + 1
    return t_lo * 2.0 ** (0.5 * np.arange(count))


def geometric_lq(g: np.ndarray, q: float, tail: float = 0.0) -> float:
    """|| g ||_{L^q(dt/t)} of a weighted profile g sampled on _geometric_nodes
    (ratio sqrt 2, so each node stands for dt/t = log(2)/2); tail is a known
    part of the integral of g^q dt/t that the nodes do not cover."""
    if np.isinf(q):
        return float(np.max(g))
    return float((0.5 * math.log(2.0) * np.sum(g**q) + tail) ** (1.0 / q))


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
    times over its last, on the same sqrt 2 ratio.

    The heat characterization integrates over all t > 0 (Bahouri-Chemin-Danchin
    2011, Thm 2.34). At t = h^2/c the profile of a field in the middle bands
    is still large (e^{tG} is far from 1 there), so cutting the integral at
    that node would make the norm depend on h; the nodes of heat_profile
    therefore start 256 times lower and end at t = L^2/c.
    """
    base = heat_time_nodes(grid, gen)
    return _geometric_nodes(base[0] / 256.0, base[-1] * above)


def heat_profile(grid: Grid, u: np.ndarray, p: float, k: int, gen: Generator) -> tuple:
    """Quadrature nodes and ||(tG)^k e^{tG} u||_p at each node (free of s).

    The nodes are extended_time_nodes(grid, gen), which says why they reach
    below the resolvable range.
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got k={k}")
    nodes = extended_time_nodes(grid, gen)
    spec = _spectral(grid, mean_free(grid, u), gen)
    profile = np.array([lp_norm(grid, _apply(grid, spec, _heat(t, k)), p) for t in nodes])
    return nodes, profile


def heat_char_weighting(nodes: np.ndarray, profile: np.ndarray, s: float, q: float) -> NormReport:
    """Weight a heat_profile by t^(-s/2) and take its L^q(dt/t) quadrature,
    || t^{-s/2} ||(tG)^k e^{tG} u||_p ||_{L^q(dt/t)}: a Besov-equivalent norm
    for k > s/2 and q > 0, exponentially accurate on geometric nodes for these
    log-smooth integrands. per_level holds the weighted profile at each node."""
    g = np.array([t ** (-s / 2.0) * v for t, v in zip(nodes, profile)])
    total = float(np.sum(g))
    leakage = (g[0] + g[-1]) / total if total > 0 else 0.0
    return NormReport(geometric_lq(g, q), float(leakage), tuple(g))
