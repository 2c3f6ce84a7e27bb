"""Config parsing: dicts in, the objects a run needs out, shared by CLI and tests.

Configs are plain dicts (JSON-shaped). ``build_*`` turn one config block into
one object; ``parse_<command>`` reads a whole command config and returns the
keyword arguments of ``lamelab.cli.run_<command>``. Parsing checks every key
and builds only cheap objects (grids, densities, initial fields, steppers), so
that every config error is raised before a run starts. Every block, and the
top level of each command, takes only its own keys: a misspelled or unknown
key is an error, not a setting left at its default."""

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
from .operators import LameParams
from .varcoef import Coefficient, StepperConfig, dense_dof, time_steps


class ConfigError(ValueError):
    """A config dict failed schema validation."""


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} config must be a JSON object, got {value!r}")
    return value


def _known(cfg: dict, where: str, keys: tuple) -> dict:
    """cfg, a JSON object that holds no key outside keys."""
    unknown = sorted(set(_object(cfg, where)) - set(keys))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where} config, which takes {sorted(keys)}")
    return cfg


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


def _integer(value, name: str, least: int) -> int:
    """A whole number >= least: 16 or 16.0, not 16.7, "16" or true."""
    if not (_is_number(value) and value % 1 == 0 and value >= least):
        raise ConfigError(f"{name} must be a whole number >= {least}, got {value!r}")
    return int(value)


def _flag(cfg: dict, key: str, default: bool) -> bool:
    """An on/off setting: true or false, nothing else."""
    value = cfg.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _real(value, name: str) -> float:
    """A real number: 2, 2.0 or 2e-3, not "2.0" or true."""
    if not _is_number(value):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _reals(value, name: str) -> list:
    """A list of real numbers, each as _real takes it."""
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
    return [_real(v, f"{name} entry") for v in value]


def _integrability(value) -> float:
    p = _real(value, "p")
    if not p >= 1.0:
        raise ConfigError(f"p must be >= 1, got {p}")
    return p


def build_grid(cfg: dict) -> Grid:
    _known(cfg, "grid", ("dim", "N", "extent"))
    dim, n = (_integer(_require(cfg, key, "grid"), f"grid.{key}", 1) for key in ("dim", "N"))
    return Grid(dim, n, _real(_require(cfg, "extent", "grid"), "grid.extent"))


def build_lame(cfg: dict) -> LameParams:
    _known(cfg, "lame", ("mu", "lambda"))
    return LameParams(*(_real(_require(cfg, key, "lame"), f"lame.{key}") for key in ("mu", "lambda")))


def build_rho0(grid: Grid, cfg: dict) -> Coefficient:
    kind = _require(cfg, "kind", "rho0")
    if kind == "constant":
        _known(cfg, "rho0", ("kind", "value"))
        value = _real(cfg.get("value", 1.0), "rho0.value")
        if not value > 0:
            raise ConfigError(f"constant rho0 value must be > 0, got {value}")
        return Coefficient.constant(grid, value)
    m = _real(_require(cfg, "m", "rho0"), "rho0.m")
    if kind == "checkerboard":
        _known(cfg, "rho0", ("kind", "m", "cells", "sharpness"))
        cells = _integer(cfg.get("cells", 2), "rho0.cells", 0)
        rho = checkerboard_density(grid, m, cells, _real(cfg.get("sharpness", 6.0), "rho0.sharpness"))
    elif kind == "trig":
        _known(cfg, "rho0", ("kind", "m", "seed", "kmax", "gain"))
        rho = trig_density(grid, m, _integer(cfg.get("seed", 0), "rho0.seed", 0),
                           _real(cfg.get("kmax", 3.0), "rho0.kmax"), _real(cfg.get("gain", 2.0), "rho0.gain"))
    else:
        raise ConfigError(f"unknown rho0 kind {kind!r}")
    return Coefficient(grid, rho, m)


def build_u0(grid: Grid, cfg: dict, p: float = 2.0) -> np.ndarray:
    """Zero, or a band field scaled to the given amplitude in B^{n/p-1}_{p,1};
    the index must be valid for either kind."""
    kind = _require(cfg, "kind", "u0")
    idx = BesovIndex(grid.dim / p - 1.0, p)
    if kind == "zero":
        _known(cfg, "u0", ("kind",))
        return np.zeros((grid.dim,) + grid.shape)
    if kind != "band":
        raise ConfigError(f"unknown u0 kind {kind!r}")
    _known(cfg, "u0", ("kind", "kmin", "kmax", "seed", "amplitude"))
    u = random_band_field(grid, _real(cfg.get("kmin", 1.0), "u0.kmin"), _real(cfg.get("kmax", 3.0), "u0.kmax"),
                          _integer(_require(cfg, "seed", "u0"), "u0.seed", 0), ncomp=grid.dim)
    amplitude = _real(_require(cfg, "amplitude", "u0"), "u0.amplitude")
    if not math.isfinite(amplitude):
        raise ConfigError(f"u0 amplitude must be finite, got {amplitude}")
    norm = besov_norm_report(grid, u, idx).value
    return u * (amplitude / norm)


def build_picard(cfg: dict) -> tuple:
    """Returns (T, PicardConfig) from a picard config block."""
    _known(cfg, "picard", ("T", "dt", "max_iters", "tol", "c", "c0", "p"))
    T = _real(_require(cfg, "T", "picard"), "picard.T")
    pc = PicardConfig(
        dt=_real(_require(cfg, "dt", "picard"), "picard.dt"),
        max_iters=_integer(cfg.get("max_iters", 25), "picard.max_iters", 1),
        stop_tol_rel=_real(cfg.get("tol", 1e-8), "picard.tol"),
        smallness_c=_real(cfg.get("c", 0.05), "picard.c"),
        flow_smallness_c0=_real(cfg.get("c0", 0.1), "picard.c0"),
        p=_integrability(cfg.get("p", 2.0)),
    )
    time_steps(T, pc.stepper.dt)  # the solve's nodes: T a finite time > 0, T/dt a finite count
    return T, pc


def _build_stepper(cfg: dict) -> StepperConfig:
    """The stepper block sets only dt: every step is Crank-Nicolson at the default CG tolerance."""
    _known(cfg, "stepper", ("dt",))
    return StepperConfig(_real(_require(cfg, "dt", "stepper"), "stepper.dt"))


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _times(cfg: dict, default: list, increasing: bool = False) -> list:
    """cfg["times"] (default if absent) as floats: a nonempty list of distinct
    finite times > 0, in increasing order if asked."""
    times = _reals(cfg.get("times", default), "times")
    if not (times and all(math.isfinite(t) and t > 0 for t in times)):
        raise ConfigError(f"times must be a nonempty list of finite times > 0, got {times!r}")
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
    _known(cfg, "kernel", ("grid", "lame", "rho0", "stepper", "times", "sources", "presmooth", "gradient", "davies"))
    grid, params, coef = _medium(cfg)
    stepper = _build_stepper(_block(cfg, "stepper", {"dt": 1e-3}))
    dcfg = _known(_switch(cfg, "davies"), "davies", ("alphas", "u0"))
    # the twisted flow steps the times in the given order; kernel columns sort them
    times = _times(cfg, [0.05, 0.1, 0.2], increasing=bool(dcfg))
    check_kernel_times(grid, params, times)
    sources = cfg.get("sources", [[grid.n // 2] * grid.dim])
    if not (isinstance(sources, list) and sources and all(_is_node(grid, y) for y in sources)):
        raise ConfigError(
            f"sources must be a nonempty list of {grid.dim} node indices in [0, {grid.n}), got {sources!r}"
        )
    davies = None
    if dcfg:
        alphas = _reals(dcfg.get("alphas", [0.0, 0.5, 1.0, 2.0]), "davies.alphas")
        u0 = build_u0(grid, dcfg.get("u0", {"kind": "band", "seed": seed, "amplitude": 1.0}))
        if not alphas or min(alphas) < 0 or not np.any(u0):
            raise ConfigError(f"davies needs nonnegative alphas and a nonzero u0, got alphas {alphas}")
        davies = ([davies_probe(grid, a) for a in alphas], u0)
    return dict(coef=coef, params=params, stepper=stepper, times=times, sources=sources,
                presmooth=_flag(cfg, "presmooth", False), gradient=_flag(cfg, "gradient", True), davies=davies)


def parse_besov(cfg: dict, seed: int) -> dict:
    _known(cfg, "besov", ("grid", "lame", "fields", "p", "s_list", "q", "k"))
    grid = build_grid(_require(cfg, "grid", "top-level"))
    params = build_lame(_require(cfg, "lame", "top-level"))
    fcfg = _known(_block(cfg, "fields", {}), "fields", ("count", "kmin", "kmax", "seed"))
    count = _integer(fcfg.get("count", 20), "fields.count", 1)
    band = _real(fcfg.get("kmin", 2.0), "fields.kmin"), _real(fcfg.get("kmax", 6.0), "fields.kmax")
    base = _integer(fcfg.get("seed", seed), "fields.seed", 0)
    p = _integrability(cfg.get("p", 2.0))
    s_list = _reals(cfg.get("s_list", [0.5, -0.5, grid.dim / p - 1.0]), "s_list")
    q = _real(cfg.get("q", 1.0), "q")
    k = _integer(cfg.get("k", 1), "k", 0)
    if not q > 0:
        raise ConfigError(f"besov needs q > 0, got {q}")
    indices = [BesovIndex(s, p) for s in s_list]
    if not all(k > idx.s / 2.0 for idx in indices):
        raise ConfigError(f"the heat characterization needs k > s/2, got k={k}, s_list={s_list}")
    band_modes(grid, *band)
    return dict(grid=grid, params=params, band=band, count=count, base=base, p=p, q=q, k=k, indices=indices)


def parse_maxreg(cfg: dict, seed: int) -> dict:
    _known(cfg, "maxreg", ("grid", "lame", "rho0", "stepper", "probes", "p", "s", "T", "norm_equiv"))
    grid, params, coef = _medium(cfg)
    stepper = _build_stepper(_block(cfg, "stepper", {"dt": 0.01}))
    pcfg = _known(_block(cfg, "probes", {}), "probes", ("count", "seed", "kmin", "kmax"))
    count = _integer(pcfg.get("count", 10), "probes.count", 1)
    base = _integer(pcfg.get("seed", seed), "probes.seed", 0)
    band = _real(pcfg.get("kmin", 1.0), "probes.kmin"), _real(pcfg.get("kmax", 4.0), "probes.kmax")
    p = _integrability(cfg.get("p", 2.0))
    idx = BesovIndex(_real(cfg.get("s", grid.dim / p - 1.0), "s"), p)
    T = _real(cfg.get("T", 2.0), "T")
    time_steps(T, stepper.dt)  # the solve's nodes: T a finite time > 0, T/dt a finite count
    band_modes(grid, *band)
    norm_equiv = None
    ncfg = _known(_switch(cfg, "norm_equiv"), "norm_equiv", ("s", "q", "count"))
    if ncfg:
        s_eq, q_eq = _real(ncfg.get("s", 0.5), "norm_equiv.s"), _real(ncfg.get("q", 1.0), "norm_equiv.q")
        n_eq = _integer(ncfg.get("count", 5), "norm_equiv.count", 1)
        if not (0.0 < s_eq < 1.0 and q_eq > 0.0):
            raise ConfigError(f"norm_equiv needs s in (0, 1) and q > 0, got {s_eq}, {q_eq}")
        norm_equiv = (s_eq, q_eq, n_eq)
    return dict(coef=coef, params=params, stepper=stepper, idx=idx, T=T, band=band, count=count, base=base,
                norm_equiv=norm_equiv)


def parse_flow(cfg: dict, seed: int) -> dict:
    _known(cfg, "flow", ("grid", "lame", "rho0", "picard", "u0", "cross_validate"))
    grid, params, rho0 = _medium(cfg)
    T, pcfg = build_picard(_require(cfg, "picard", "top-level"))
    BesovIndex(grid.dim / pcfg.p, pcfg.p)  # the flow budget of lagrangian.flow_diagnostics: p > n/2
    u0 = build_u0(grid, _require(cfg, "u0", "top-level"), pcfg.p)
    cross_validate = _flag(cfg, "cross_validate", False)
    if cross_validate and not np.any(u0):  # the error is relative to the Eulerian reference
        raise ConfigError("cross_validate needs a nonzero u0")
    return dict(rho0=rho0, params=params, u0=u0, T=T, pcfg=pcfg, cross_validate=cross_validate)


def parse_oracle(cfg: dict, seed: int) -> dict:
    _known(cfg, "oracle", ("grid", "lame", "rho0", "u0", "stepper", "times"))
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
    _known(cfg, "plotdata", ("kind", "input"))
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

