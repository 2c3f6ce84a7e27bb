"""Config parsing: dicts in, the objects a run needs out, shared by CLI and tests.

Configs are plain dicts (JSON-shaped). ``build_*`` turn one config block into
one object; ``parse_<command>`` reads a whole command config and returns the
keyword arguments of ``lamelab.cli.run_<command>``. Parsing checks every key
and builds only cheap objects (grids, densities, initial fields, steppers), so
that every config error is raised before a run starts. The standard
small-data flow scenario lives here so the command line, the test suite, and
reports all run the same bytes."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .besov import BesovIndex, besov_norm_report
from .fields import band_modes, checkerboard_density, random_band_field, trig_density
from .grid import Grid
from .io import read_csv
from .kernels import check_kernel_times, davies_probe
from .lagrangian import PicardConfig
from .maxreg import time_grid
from .operators import LameParams
from .varcoef import Coefficient, StepperConfig, dense_dof


class ConfigError(ValueError):
    """A config dict failed schema validation."""


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} config must be a JSON object, got {value!r}")
    return value


def _require(cfg: dict, key: str, where: str):
    if key not in _object(cfg, where):
        raise ConfigError(f"missing key {key!r} in {where} config")
    return cfg[key]


def _block(cfg: dict, key: str, default: dict) -> dict:
    """cfg[key] (default if absent), which must be a JSON object."""
    return _object(cfg.get(key, default), key)


def _switch(cfg: dict, key: str) -> dict:
    """An optional block that a falsy value (absent, null, {}) turns off: {} then."""
    return _object(cfg.get(key) or {}, key)


def _seed(value) -> int:
    seed = int(value)
    if seed < 0:
        raise ConfigError(f"seeds must be >= 0, got {seed}")
    return seed


def _integrability(value) -> float:
    p = float(value)
    if not p >= 1.0:
        raise ConfigError(f"p must be >= 1, got {p}")
    return p


def build_grid(cfg: dict) -> Grid:
    return Grid(int(_require(cfg, "dim", "grid")), int(_require(cfg, "N", "grid")),
                float(_require(cfg, "extent", "grid")))


def build_lame(cfg: dict) -> LameParams:
    return LameParams(float(_require(cfg, "mu", "lame")), float(_require(cfg, "lambda", "lame")))


def build_rho0(grid: Grid, cfg: dict) -> Coefficient:
    kind = _require(cfg, "kind", "rho0")
    if kind == "constant":
        value = float(cfg.get("value", 1.0))
        if not value > 0:
            raise ConfigError(f"constant rho0 value must be > 0, got {value}")
        return Coefficient.constant(grid, value)
    m = float(_require(cfg, "m", "rho0"))
    if kind == "checkerboard":
        rho = checkerboard_density(grid, m, int(cfg.get("cells", 2)), float(cfg.get("sharpness", 6.0)))
    elif kind == "trig":
        rho = trig_density(grid, m, _seed(cfg.get("seed", 0)), float(cfg.get("kmax", 3.0)),
                           float(cfg.get("gain", 2.0)))
    else:
        raise ConfigError(f"unknown rho0 kind {kind!r}")
    return Coefficient(grid, rho, m)


def build_u0(grid: Grid, cfg: dict, p: float = 2.0) -> np.ndarray:
    """Zero, or a band field scaled to the given amplitude in B^{n/p-1}_{p,1};
    the index must be valid for either kind."""
    kind = _require(cfg, "kind", "u0")
    idx = BesovIndex(grid.dim / p - 1.0, p)
    if kind == "zero":
        return np.zeros((grid.dim,) + grid.shape)
    if kind != "band":
        raise ConfigError(f"unknown u0 kind {kind!r}")
    u = random_band_field(grid, float(cfg.get("kmin", 1.0)), float(cfg.get("kmax", 3.0)),
                          _seed(_require(cfg, "seed", "u0")), ncomp=grid.dim)
    amplitude = float(_require(cfg, "amplitude", "u0"))
    if not math.isfinite(amplitude):
        raise ConfigError(f"u0 amplitude must be finite, got {amplitude}")
    norm = besov_norm_report(grid, u, idx).value
    return u * (amplitude / norm)


def build_picard(cfg: dict) -> tuple:
    """Returns (T, PicardConfig) from a picard config block."""
    T = float(_require(cfg, "T", "picard"))
    pc = PicardConfig(
        dt=float(_require(cfg, "dt", "picard")),
        max_iters=int(cfg.get("max_iters", 25)),
        stop_tol_rel=float(cfg.get("tol", 1e-8)),
        smallness_c=float(cfg.get("c", 0.05)),
        flow_smallness_c0=float(cfg.get("c0", 0.1)),
        p=_integrability(cfg.get("p", 2.0)),
    )
    time_grid(T, pc.stepper.dt)  # the solve's nodes: T a finite time > 0, dt > 0
    return T, pc


def _build_stepper(cfg: dict) -> StepperConfig:
    """The stepper block sets only dt: every step is Crank-Nicolson at the default CG tolerance."""
    extra = sorted(set(cfg) - {"dt"})
    if extra:
        raise ConfigError(f"the stepper block takes only dt, got {extra}")
    return StepperConfig(float(_require(cfg, "dt", "stepper")))


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _times(cfg: dict, default: list, increasing: bool = False) -> list:
    """cfg["times"] (default if absent) as floats: a nonempty list of distinct
    finite times > 0, in increasing order if asked."""
    times = cfg.get("times", default)
    if not (isinstance(times, list) and times and all(_is_number(t) and math.isfinite(t) and t > 0 for t in times)):
        raise ConfigError(f"times must be a nonempty list of finite times > 0, got {times!r}")
    times = [float(t) for t in times]
    if len(set(times)) < len(times) or (increasing and times != sorted(times)):
        raise ConfigError(f"times must be distinct{' and increasing' if increasing else ''}, got {times}")
    return times


def _is_node(grid: Grid, index) -> bool:
    """A grid node given as a list of dim integer indices in [0, n)."""
    return (
        isinstance(index, list)
        and len(index) == grid.dim
        and all(isinstance(i, int) and not isinstance(i, bool) and 0 <= i < grid.n for i in index)
    )


def _medium(cfg: dict) -> tuple:
    """The elastic medium (grid, LameParams, Coefficient) from the grid, lame and rho0 blocks."""
    grid = build_grid(_require(cfg, "grid", "top-level"))
    return grid, build_lame(_require(cfg, "lame", "top-level")), build_rho0(grid, _require(cfg, "rho0", "top-level"))


# -- one parser per command ------------------------------------------------------


def parse_kernel(cfg: dict, seed: int) -> dict:
    grid, params, coef = _medium(cfg)
    stepper = _build_stepper(_block(cfg, "stepper", {"dt": 1e-3}))
    dcfg = _switch(cfg, "davies")
    # the twisted flow steps the times in the given order; kernel columns sort them
    times = _times(cfg, [0.05, 0.1, 0.2], increasing=bool(dcfg))
    check_kernel_times(grid, params, times)
    sources = cfg.get("sources") or [[grid.n // 2] * grid.dim]
    if not (isinstance(sources, list) and all(_is_node(grid, y) for y in sources)):
        raise ConfigError(f"sources must be lists of {grid.dim} node indices in [0, {grid.n}), got {sources!r}")
    davies = None
    if dcfg:
        alphas = [float(a) for a in dcfg.get("alphas", [0.0, 0.5, 1.0, 2.0])]
        u0 = build_u0(grid, dcfg.get("u0", {"kind": "band", "seed": seed, "amplitude": 1.0}))
        if not alphas or min(alphas) < 0 or not np.any(u0):
            raise ConfigError(f"davies needs nonnegative alphas and a nonzero u0, got alphas {alphas}")
        davies = ([davies_probe(grid, a) for a in alphas], u0)
    return dict(coef=coef, params=params, stepper=stepper, times=times, sources=sources,
                presmooth=bool(cfg.get("presmooth", False)), gradient=bool(cfg.get("gradient", True)), davies=davies)


def parse_besov(cfg: dict, seed: int) -> dict:
    grid = build_grid(_require(cfg, "grid", "top-level"))
    params = build_lame(_require(cfg, "lame", "top-level"))
    fcfg = _block(cfg, "fields", {})
    count = int(fcfg.get("count", 20))
    band = float(fcfg.get("kmin", 2.0)), float(fcfg.get("kmax", 6.0))
    base = _seed(fcfg.get("seed", seed))
    p = _integrability(cfg.get("p", 2.0))
    s_list = [float(s) for s in cfg.get("s_list", [0.5, -0.5, grid.dim / p - 1.0])]
    q = float(cfg.get("q", 1.0))
    k = int(cfg.get("k", 1))
    if count < 1 or not q > 0:
        raise ConfigError(f"besov needs fields.count >= 1 and q > 0, got {count}, {q}")
    indices = [BesovIndex(s, p) for s in s_list]
    if not all(k > idx.s / 2.0 for idx in indices):
        raise ConfigError(f"the heat characterization needs k > s/2, got k={k}, s_list={s_list}")
    band_modes(grid, *band)
    return dict(grid=grid, params=params, band=band, count=count, base=base, p=p, q=q, k=k, indices=indices)


def parse_maxreg(cfg: dict, seed: int) -> dict:
    grid, params, coef = _medium(cfg)
    stepper = _build_stepper(_block(cfg, "stepper", {"dt": 0.01}))
    pcfg = _block(cfg, "probes", {})
    count = int(pcfg.get("count", 10))
    base = _seed(pcfg.get("seed", seed))
    band = float(pcfg.get("kmin", 1.0)), float(pcfg.get("kmax", 4.0))
    p = _integrability(cfg.get("p", 2.0))
    idx = BesovIndex(float(cfg.get("s", grid.dim / p - 1.0)), p)
    T = float(cfg.get("T", 2.0))
    time_grid(T, stepper.dt)  # the solve's nodes: T a finite time > 0
    if count < 1:
        raise ConfigError(f"probes count must be >= 1, got {count}")
    band_modes(grid, *band)
    norm_equiv = None
    ncfg = _switch(cfg, "norm_equiv")
    if ncfg:
        s_eq, q_eq, n_eq = float(ncfg.get("s", 0.5)), float(ncfg.get("q", 1.0)), int(ncfg.get("count", 5))
        if not (0.0 < s_eq < 1.0 and q_eq > 0.0 and n_eq >= 1):
            raise ConfigError(f"norm_equiv needs s in (0, 1), q > 0, count >= 1; got {s_eq}, {q_eq}, {n_eq}")
        norm_equiv = (s_eq, q_eq, n_eq)
    return dict(coef=coef, params=params, stepper=stepper, idx=idx, T=T, band=band, count=count, base=base,
                norm_equiv=norm_equiv)


def parse_flow(cfg: dict, seed: int) -> dict:
    grid, params, rho0 = _medium(cfg)
    T, pcfg = build_picard(_require(cfg, "picard", "top-level"))
    BesovIndex(grid.dim / pcfg.p, pcfg.p)  # the flow budget grad_besov_l1 of run_flow: p > n/2
    u0 = build_u0(grid, _require(cfg, "u0", "top-level"), pcfg.p)
    cross_validate = bool(cfg.get("cross_validate", False))
    if cross_validate and not np.any(u0):  # the error is relative to the Eulerian reference
        raise ConfigError("cross_validate needs a nonzero u0")
    return dict(rho0=rho0, params=params, u0=u0, T=T, pcfg=pcfg, cross_validate=cross_validate)


def parse_oracle(cfg: dict, seed: int) -> dict:
    grid, params, coef = _medium(cfg)
    dense_dof(grid)
    u0 = build_u0(grid, cfg.get("u0", {"kind": "band", "seed": seed, "amplitude": 1.0}))
    if not np.any(u0):  # the error is relative to the oracle's solution
        raise ConfigError("oracle needs a nonzero u0")
    return dict(coef=coef, params=params, stepper=_build_stepper(_block(cfg, "stepper", {"dt": 1e-4})),
                times=_times(cfg, [0.05, 0.2], increasing=True), u0=u0)


def _shell_columns(header, rows):
    it, id_, iv = header.index("t"), header.index("d"), header.index("shell_max")
    z = [float(r[id_]) ** 2 / float(r[it]) for r in rows]
    y = [float(np.log(float(r[iv]))) for r in rows]
    return [z, y]


def _iteration_columns(header, rows):
    ik, ifac = header.index("k"), header.index("contraction_factor")
    ks, fs = [], []
    for r in rows:
        if r[ifac] != "":
            ks.append(float(r[ik]))
            fs.append(float(r[ifac]))
    return [ks, fs]


_PLOT_KINDS = {
    "shells": (["d2_over_t", "log_shell_max"], _shell_columns),
    "iterations": (["k", "contraction_factor"], _iteration_columns),
}


def parse_plotdata(cfg: dict, seed: int) -> dict:
    """Reads the input report whole: the columns are the plan."""
    kind = cfg.get("kind")
    if kind not in _PLOT_KINDS:
        raise ConfigError(f"plotdata kind must be one of {sorted(_PLOT_KINDS)}, got {kind!r}")
    src = Path(cfg.get("input", ""))
    if not src.is_file():
        raise ConfigError(f"input report {src} does not exist")
    header, rows = read_csv(src)
    if any(len(r) != len(header) for r in rows):
        raise ConfigError(f"input report {src} has rows that do not match its header")
    names, extract = _PLOT_KINDS[kind]
    return dict(kind=kind, names=names, columns=extract(header, rows))


# The standard small-data scenario: rough plateaued density at m = 1/2, a
# band-limited initial velocity at the certified amplitude, horizon equal to
# four viscous times of the lowest mode.
DEFAULT_FLOW_SCENARIO = {
    "grid": {"dim": 2, "N": 128, "extent": 8.0},
    "lame": {"mu": 1.0, "lambda": 1.0},
    # sharpness 2 keeps the full [m, 1/m] swing while the transition layer
    # stays a few cells wide at N = 128, so composition checks resolve it
    "rho0": {"kind": "checkerboard", "m": 0.5, "cells": 2, "sharpness": 2.0},
    "u0": {"kind": "band", "kmin": 1.0, "kmax": 3.0, "seed": 7, "amplitude": 0.05},
    "picard": {"T": 6.5, "dt": 0.05, "max_iters": 25, "tol": 1e-8},
}
