"""Experiment runner: config in, deterministic artifacts out.

Subcommands: kernel, besov, maxreg, flow, oracle, plotdata. Every run writes
a manifest (config echo, version, wall time, status) even when the
numerics fail; artifacts other than the manifest are bit-identical across
reruns of the same config, seed, and version.

Exit codes: 0 success, 1 numerical failure (named in the manifest),
2 config or input validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import scipy.fft

from . import __version__
from .besov import (
    BesovIndex,
    besov_level_norms,
    besov_weighting,
    default_partition,
    heat_char_weighting,
    heat_profile,
)
from .grid import lp_norm
from .fields import random_band_field, random_time_profile
from .io import read_csv, write_csv, write_field, write_manifest, write_plotdata
from .kernels import (
    EnvelopeFitError,
    conservation_defect,
    davies_probe,
    davies_twisted_norm,
    gaussian_fit,
    gradient_envelope,
    kernel_column,
    symmetry_defect,
)
from .lagrangian import (
    CFLError,
    DiffeomorphismError,
    FlowInversionError,
    PicardConvergenceError,
    density_transport_check,
    eulerian_reference_solve,
    flow_map,
    grad_sup_integral,
    grad_sup_tail_estimate,
    picard_solve,
    pushforward_eulerian,
    scheme_residual,
)
from .maxreg import DegenerateProbeError, norm_equiv_ratio, solve_linear_maxreg, time_grid
from .operators import ScaledLaplacian
from .scenarios import (
    ConfigError,
    build_grid,
    build_lame,
    build_picard,
    build_rho0,
    build_u0,
)
from .varcoef import (
    SolverConvergenceError,
    StepperConfig,
    dense_semigroup_matrix,
    evolve,
)

_NUMERICAL_ERRORS = (
    SolverConvergenceError,
    EnvelopeFitError,
    DegenerateProbeError,
    CFLError,
    DiffeomorphismError,
    FlowInversionError,
    PicardConvergenceError,
    FloatingPointError,
)


def _build_stepper(cfg: dict) -> StepperConfig:
    if "dt" not in cfg:
        raise ConfigError("stepper config needs 'dt'")
    return StepperConfig(
        dt=float(cfg["dt"]),
        theta=float(cfg.get("theta", 0.5)),
        cg_tol=float(cfg.get("cg_tol", 1e-10)),
        cg_maxiter=int(cfg.get("cg_maxiter", 500)),
    )


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _times(cfg: dict, default: list) -> list:
    """cfg["times"] (default if absent) as floats: a nonempty list of finite numbers > 0."""
    times = cfg.get("times", default)
    if not (isinstance(times, list) and times and all(_is_number(t) and math.isfinite(t) and t > 0 for t in times)):
        raise ConfigError(f"times must be a nonempty list of finite times > 0, got {times!r}")
    return [float(t) for t in times]


def _is_node(grid, index) -> bool:
    """A grid node given as a list of dim integer indices in [0, n)."""
    return (
        isinstance(index, list)
        and len(index) == grid.dim
        and all(isinstance(i, int) and not isinstance(i, bool) and 0 <= i < grid.n for i in index)
    )


# -- pipelines -----------------------------------------------------------------


def run_kernel(cfg: dict, out: Path, seed: int) -> dict:
    grid = build_grid(cfg["grid"])
    params = build_lame(cfg["lame"])
    coef = build_rho0(grid, cfg["rho0"])
    stepper = _build_stepper(cfg.get("stepper", {"dt": 1e-3}))
    times = _times(cfg, [0.05, 0.1, 0.2])
    sources = cfg.get("sources") or [[grid.n // 2] * grid.dim]
    if not (isinstance(sources, list) and all(_is_node(grid, y) for y in sources)):
        raise ConfigError(f"sources must be lists of {grid.dim} node indices in [0, {grid.n}), got {sources!r}")
    presmooth = bool(cfg.get("presmooth", False))
    dcfg = cfg.get("davies")
    if dcfg:
        alphas = [float(a) for a in dcfg.get("alphas", [0.0, 0.5, 1.0, 2.0])]
        davies_u0 = build_u0(grid, dcfg.get("u0", {"kind": "band", "seed": seed, "amplitude": 1.0}))
        if not alphas or min(alphas) < 0 or not np.any(davies_u0):
            raise ConfigError(f"davies needs nonnegative alphas and a nonzero u0, got alphas {alphas}")

    slice_sets = [kernel_column(coef, params, y0, times, stepper, presmooth=presmooth) for y0 in sources]
    all_slices = [s for group in slice_sets for s in group]

    fit = gaussian_fit(all_slices)
    write_csv(out / "shells.csv", ["t", "d", "shell_max", "model_value"], fit.shells)
    rows = [
        ("kernel", fit.amplitude, fit.c_dec, fit.r_squared, fit.max_exceedance, fit.n_shells)
    ]
    summary = {
        "amplitude": fit.amplitude,
        "c_dec": fit.c_dec,
        "r_squared": fit.r_squared,
        "max_exceedance": fit.max_exceedance,
    }
    if cfg.get("gradient", True):
        gfit = gradient_envelope(all_slices)
        write_csv(
            out / "gradient_shells.csv", ["t", "d", "shell_max", "model_value"], gfit.shells
        )
        rows.append(
            ("gradient", gfit.amplitude, gfit.c_dec, gfit.r_squared, gfit.max_exceedance, gfit.n_shells)
        )
        summary["gradient_r_squared"] = gfit.r_squared
    write_csv(
        out / "fit_summary.csv",
        ["quantity", "amplitude", "c_dec", "r_squared", "max_exceedance", "n_shells"],
        rows,
    )

    cons_rows = [
        (i, s.t, conservation_defect(coef, s)) for i, s in enumerate(all_slices)
    ]
    write_csv(out / "conservation.csv", ["slice", "t", "defect"], cons_rows)
    summary["max_conservation_defect"] = max(r[2] for r in cons_rows)

    if len(slice_sets) >= 2:
        sym_rows = []
        for a in range(len(slice_sets)):
            for b in range(a + 1, len(slice_sets)):
                for sa, sb in zip(slice_sets[a], slice_sets[b]):
                    sym_rows.append((a, b, sa.t, symmetry_defect(sa, sb)))
        write_csv(out / "symmetry.csv", ["source_a", "source_b", "t", "defect"], sym_rows)
        summary["max_symmetry_defect"] = max(r[3] for r in sym_rows)

    if dcfg:
        probes = [davies_probe(grid, a) for a in alphas]
        rep = davies_twisted_norm(coef, params, probes, davies_u0, times, stepper)
        rows = [
            (alpha, t, g)
            for alpha, curve in zip(rep.alphas, rep.log_growth)
            for t, g in zip(rep.times, curve)
        ]
        write_csv(out / "davies.csv", ["alpha", "t", "log_growth"], rows)
        summary["davies_growth_constant"] = rep.growth_constant
    return summary


def run_besov(cfg: dict, out: Path, seed: int) -> dict:
    grid = build_grid(cfg["grid"])
    params = build_lame(cfg["lame"])
    part = default_partition(grid)
    fcfg = cfg.get("fields", {})
    count = int(fcfg.get("count", 20))
    kmin, kmax = float(fcfg.get("kmin", 2.0)), float(fcfg.get("kmax", 6.0))
    base = int(fcfg.get("seed", seed))
    p = float(cfg.get("p", 2.0))
    s_list = [float(s) for s in cfg.get("s_list", [0.5, -0.5, grid.dim / p - 1.0])]
    q = float(cfg.get("q", 1.0))
    k = int(cfg.get("k", 1))
    if count < 1 or not q > 0:
        raise ConfigError(f"besov needs fields.count >= 1 and q > 0, got {count}, {q}")

    indices = [BesovIndex(s, p, 1.0) for s in s_list]
    if not all(k > idx.s / 2.0 for idx in indices):
        raise ConfigError(f"the heat characterization needs k > s/2, got k={k}, s_list={s_list}")
    gens = (("laplacian", ScaledLaplacian(1.0)), ("lame", params))

    # block norms and heat profiles do not depend on s: take each once per field
    levels, profiles = [], {}
    for i in range(count):
        u = random_band_field(grid, kmin, kmax, base + i, ncomp=grid.dim)
        levels.append(besov_level_norms(grid, u[None], p, part)[0])
        for gname, gen in gens:
            profiles[gname, i] = heat_profile(grid, u, p, k, gen)
    nz = grid.rfreq_sq > 0
    punity = float(np.max(np.abs(sum(part.masks)[nz] - 1.0)))

    rows = [("partition_defect", 0.0, p, 1.0, punity, 0.0)]
    summary = {"partition_defect": punity, "equivalence": {}}
    for idx in indices:
        s = idx.s
        for gname, _ in gens:
            ratios = []
            for i in range(count):
                brep = besov_weighting(part, levels[i], idx)
                hrep = heat_char_weighting(*profiles[gname, i], s, q)
                ratio = hrep.value / brep.value
                ratios.append(ratio)
                rows.append((f"heat_over_lp_{gname}_{i}", s, p, 1.0, ratio, max(brep.leakage, hrep.leakage)))
            kbound = max(max(ratios), 1.0 / min(ratios))
            rows.append((f"equivalence_K_{gname}", s, p, 1.0, kbound, 0.0))
            summary["equivalence"][f"s={s},{gname}"] = kbound
    write_csv(out / "besov_report.csv", ["quantity", "s", "p", "r", "value", "boundary_leakage_fraction"], rows)
    return summary


def run_maxreg(cfg: dict, out: Path, seed: int) -> dict:
    grid = build_grid(cfg["grid"])
    params = build_lame(cfg["lame"])
    coef = build_rho0(grid, cfg["rho0"])
    stepper = _build_stepper(cfg.get("stepper", {"dt": 0.01}))
    pcfg = cfg.get("probes", {})
    count = int(pcfg.get("count", 10))
    base = int(pcfg.get("seed", seed))
    kmin, kmax = float(pcfg.get("kmin", 1.0)), float(pcfg.get("kmax", 4.0))
    p = float(cfg.get("p", 2.0))
    s = float(cfg.get("s", grid.dim / p - 1.0))
    T = float(cfg.get("T", 2.0))
    if not (math.isfinite(T) and T > 0):
        raise ConfigError(f"T must be a finite time > 0, got {T}")
    if count < 1:
        raise ConfigError(f"probes count must be >= 1, got {count}")
    ncfg = cfg.get("norm_equiv")
    if ncfg:
        s_eq = float(ncfg.get("s", 0.5))
        q_eq = float(ncfg.get("q", 1.0))
        n_eq = int(ncfg.get("count", 5))
        if not (0.0 < s_eq < 1.0 and q_eq > 0.0 and n_eq >= 1):
            raise ConfigError(f"norm_equiv needs s in (0, 1), q > 0, count >= 1; got {s_eq}, {q_eq}, {n_eq}")

    t_grid = time_grid(T, stepper.dt)

    def one_probe(i):  # a function, so that each probe's forcing is freed after its solve
        u0 = random_band_field(grid, kmin, kmax, base + 2 * i, ncomp=grid.dim)
        fx = random_band_field(grid, kmin, kmax, base + 2 * i + 1, ncomp=grid.dim)
        prof = random_time_profile(t_grid, base + 31 * i)
        forcing = prof.reshape((-1,) + (1,) * fx.ndim) * fx
        return solve_linear_maxreg(coef, params, u0, forcing, s, p, T, stepper)

    reports = [one_probe(i) for i in range(count)]
    rows = [
        (i, r.u0_norm, r.forcing_norm, r.sup_norm, r.dt_norm, r.op_norm, r.ratio, r.max_leakage)
        for i, r in enumerate(reports)
    ]
    write_csv(
        out / "maxreg_probes.csv",
        ["probe", "u0_norm", "f_norm", "sup_norm", "dt_l1", "op_l1", "ratio", "max_leakage"],
        rows,
    )
    max_ratio = max(r.ratio for r in reports)
    write_csv(out / "maxreg_summary.csv", ["quantity", "value"], [("max_ratio", max_ratio)])

    summary = {"max_ratio": max_ratio}
    if ncfg:
        ratios = []
        for i in range(n_eq):
            x = random_band_field(grid, kmin, kmax, base + 1000 + i, ncomp=grid.dim)
            ratios.append(norm_equiv_ratio(coef, params, x, s_eq, q_eq, stepper))
        write_csv(out / "norm_equiv.csv", ["probe", "ratio"], list(enumerate(ratios)))
        summary["norm_equiv_K"] = max(max(ratios), 1.0 / min(ratios))
    return summary


def run_flow(cfg: dict, out: Path, seed: int) -> dict:
    grid = build_grid(cfg["grid"])
    params = build_lame(cfg["lame"])
    rho0 = build_rho0(grid, cfg["rho0"])
    T, pcfg = build_picard(cfg["picard"])
    u0 = build_u0(grid, cfg["u0"], pcfg.p)

    state, diag = picard_solve(rho0, params, u0, T, pcfg)
    iter_rows = []
    for k, delta in enumerate(diag.delta_norms):
        factor = diag.contraction_factors[k - 1] if k >= 1 else ""
        iter_rows.append((k + 1, diag.iterate_norms[k + 1], delta, factor))
    write_csv(out / "iterations.csv", ["k", "solution_norm", "update_norm", "contraction_factor"], iter_rows)

    flow = flow_map(state)
    eul = pushforward_eulerian(state, flow, rho0)
    transport = density_transport_check(state, flow, rho0, eul)
    residual = scheme_residual(state, flow, pcfg.theta)
    gsi = grad_sup_integral(state)
    diag_rows = [
        ("u0_norm", diag.u0_norm),
        ("smallness_ok", int(diag.smallness_ok)),
        ("iterations", diag.iterations),
        ("residual_l1", residual),
        ("grad_sup_integral", gsi),
        ("grad_sup_integral_extrapolated", grad_sup_tail_estimate(state)),
        ("jac_det_min", float(np.min(flow.det))),
        ("jac_det_max", float(np.max(flow.det))),
        ("density_transport_defect", transport.max_pointwise_defect),
        ("mass_defect", transport.max_mass_defect),
    ]
    summary = {
        "iterations": diag.iterations,
        "contraction_factors": diag.contraction_factors,
        "grad_sup_integral": gsi,
        "density_transport_defect": transport.max_pointwise_defect,
    }
    if cfg.get("cross_validate", False):
        ref = eulerian_reference_solve(rho0, params, u0, T, pcfg.stepper)
        rel = lp_norm(grid, eul.u[-1] - ref.u[-1], 2) / lp_norm(grid, ref.u[-1], 2)
        diag_rows.append(("cross_validation_rel_l2", rel))
        summary["cross_validation_rel_l2"] = rel
    write_csv(out / "diagnostics.csv", ["quantity", "value"], diag_rows)

    write_field(out / "u0.plf1", grid, u0)
    write_field(out / "u_final_lagrangian.plf1", grid, state.u[-1])
    write_field(out / "u_final_eulerian.plf1", grid, eul.u[-1])
    write_field(out / "rho_final_eulerian.plf1", grid, eul.rho[-1])
    return summary


def run_oracle(cfg: dict, out: Path, seed: int) -> dict:
    grid = build_grid(cfg["grid"])
    params = build_lame(cfg["lame"])
    coef = build_rho0(grid, cfg["rho0"])
    stepper = _build_stepper(cfg.get("stepper", {"dt": 1e-4}))
    times = _times(cfg, [0.05, 0.2])
    u0 = build_u0(grid, cfg.get("u0", {"kind": "band", "seed": seed, "amplitude": 1.0}))

    traj = evolve(coef, params, u0, [0.0] + times, stepper)
    rows = []
    for i, t in enumerate(times):
        mat = dense_semigroup_matrix(coef, params, t)
        oracle = (mat @ u0.ravel()).reshape(u0.shape)
        rel = lp_norm(grid, traj[i + 1] - oracle, 2) / lp_norm(grid, oracle, 2)
        bmat = mat * np.broadcast_to(coef.b, (grid.dim,) + grid.shape).ravel()[None, :]
        sym = float(np.max(np.abs(bmat - bmat.T)) / np.max(np.abs(bmat)))
        rows.append((t, rel, sym))
    write_csv(out / "oracle.csv", ["t", "rel_l2_evolve_vs_expm", "expm_b_symmetry_defect"], rows)
    return {"max_rel_l2": max(r[1] for r in rows), "max_symmetry_defect": max(r[2] for r in rows)}


_PLOT_KINDS = {
    "shells": (["d2_over_t", "log_shell_max"], lambda hdr, rows: _shell_columns(hdr, rows)),
    "iterations": (["k", "contraction_factor"], lambda hdr, rows: _iteration_columns(hdr, rows)),
}


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


def run_plotdata(cfg: dict, out: Path, seed: int) -> dict:
    kind = cfg.get("kind")
    if kind not in _PLOT_KINDS:
        raise ConfigError(f"plotdata kind must be one of {sorted(_PLOT_KINDS)}, got {kind!r}")
    src = Path(cfg.get("input", ""))
    if not src.is_file():
        raise ConfigError(f"input report {src} does not exist")
    header, rows = read_csv(src)
    names, extract = _PLOT_KINDS[kind]
    columns = extract(header, rows)
    write_plotdata(out / f"{kind}.dat", names, columns)
    return {"rows": len(columns[0]) if columns else 0}


_PIPELINES = {
    "kernel": run_kernel,
    "besov": run_besov,
    "maxreg": run_maxreg,
    "flow": run_flow,
    "oracle": run_oracle,
    "plotdata": run_plotdata,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="lamelab", description=__doc__)
    parser.add_argument("command", choices=sorted(_PIPELINES))
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", required=True, help="output directory (created if absent)")
    parser.add_argument("--seed", type=int, default=0, help="base seed for random probes")
    parser.add_argument("--threads", type=int, default=1, help="FFT worker threads (0 = all cores)")
    args = parser.parse_args(argv)
    if args.threads < 0:
        print(f"config error: --threads must be >= 0, got {args.threads}", file=sys.stderr)
        return 2

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()

    try:
        cfg = json.loads(Path(args.config).read_text())
        if not isinstance(cfg, dict):
            raise ConfigError("top-level config must be a JSON object")
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    manifest = {
        "command": args.command,
        "config": cfg,
        "seed": args.seed,
        "threads": args.threads,
        "version": __version__,
    }
    try:
        with scipy.fft.set_workers(args.threads or -1):
            summary = _PIPELINES[args.command](cfg, out, args.seed)
    except (ConfigError, KeyError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        manifest.update(
            status="numerical_failure",
            error={"type": type(exc).__name__, "message": str(exc)},
            wall_time_s=time.time() - started,
        )
        write_manifest(out / "manifest.json", manifest)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    manifest.update(status="ok", summary=summary, wall_time_s=time.time() - started)
    write_manifest(out / "manifest.json", manifest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
