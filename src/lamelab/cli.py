"""Experiment runner: config in, deterministic artifacts out.

Subcommands: kernel, besov, maxreg, flow, oracle, plotdata. Each command
first parses its whole config (lamelab.scenarios), then creates --out and
runs. Every run writes a manifest (config echo, version, wall time, status),
also when it fails; a rejected config writes nothing. Artifacts other than
the manifest are bit-identical across reruns of the same config, seed, and
version.

Exit codes: 0 success; 2 the config was rejected before --out was created,
so nothing was written; 1 the run failed after that, and the manifest names
the error, with the exception's own fields (a failed Picard solve: its
diagnostics).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy.fft

from . import __version__
from .besov import (
    besov_level_norms,
    besov_weighting,
    default_partition,
    heat_char_weighting,
    heat_profile,
)
from .grid import lp_norm
from .fields import random_band_field, random_time_profile
from .io import write_csv, write_field, write_manifest, write_plotdata
from .kernels import (
    conservation_defect,
    davies_twisted_norm,
    gaussian_fit,
    gradient_envelope,
    kernel_column,
    symmetry_defect,
)
from .lagrangian import PicardConvergenceError, eulerian_reference_solve, flow_diagnostics, picard_solve
from .maxreg import norm_equiv_ratio, solve_linear_maxreg
from .operators import ScaledLaplacian
from .scenarios import (
    ConfigError,
    parse_besov,
    parse_flow,
    parse_kernel,
    parse_maxreg,
    parse_oracle,
    parse_plotdata,
)
from .varcoef import dense_semigroup_matrices, evolve, time_grid

# -- pipelines: each takes --out and the keyword arguments its parser returns ----------


def run_kernel(out: Path, *, coef, params, stepper, times, sources, presmooth, gradient, davies) -> dict:
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
    if gradient:
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

    if davies is not None:
        probes, davies_u0 = davies
        rep = davies_twisted_norm(coef, params, probes, davies_u0, times, stepper)
        rows = [
            (alpha, t, g)
            for alpha, curve in zip(rep.alphas, rep.log_growth)
            for t, g in zip(rep.times, curve)
        ]
        write_csv(out / "davies.csv", ["alpha", "t", "log_growth"], rows)
        summary["davies_growth_constant"] = rep.growth_constant
    return summary


def run_besov(out: Path, *, grid, params, band, count, base, p, q, k, indices) -> dict:
    part = default_partition(grid)
    gens = (("laplacian", ScaledLaplacian(1.0)), ("lame", params))

    # block norms and heat profiles do not depend on s: take each once per field
    levels, profiles = [], {}
    for i in range(count):
        u = random_band_field(grid, *band, base + i, ncomp=grid.dim)
        levels.append(besov_level_norms(grid, u[None], p)[0])
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


def run_maxreg(out: Path, *, coef, params, stepper, idx, T, band, count, base, norm_equiv) -> dict:
    grid = coef.grid
    t_grid = time_grid(T, stepper.dt)

    def one_probe(i):  # the forcing phi(t) g(x) goes in as its two factors, never as a stack of rows
        u0 = random_band_field(grid, *band, base + 2 * i, ncomp=grid.dim)
        fx = random_band_field(grid, *band, base + 2 * i + 1, ncomp=grid.dim)
        phi = random_time_profile(t_grid, base + 31 * i)
        return solve_linear_maxreg(coef, params, u0, phi, fx, idx, t_grid, stepper)

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
    if norm_equiv is not None:
        s_eq, q_eq, n_eq = norm_equiv
        ratios = []
        for i in range(n_eq):
            x = random_band_field(grid, *band, base + 1000 + i, ncomp=grid.dim)
            ratios.append(norm_equiv_ratio(coef, params, x, s_eq, q_eq))
        write_csv(out / "norm_equiv.csv", ["probe", "ratio"], list(enumerate(ratios)))
        summary["norm_equiv_K"] = max(max(ratios), 1.0 / min(ratios))
    return summary


def _write_iterations(path: Path, diag) -> None:
    rows = [
        (k + 1, norm, delta, diag.contraction_factors[k - 1] if k >= 1 else "")
        for k, (norm, delta) in enumerate(zip(diag.iterate_norms, diag.delta_norms))
    ]
    write_csv(path, ["k", "solution_norm", "update_norm", "contraction_factor"], rows)


def run_flow(out: Path, *, rho0, params, u0, T, pcfg, cross_validate) -> dict:
    grid = rho0.grid
    try:
        state, diag = picard_solve(rho0, params, u0, T, pcfg)
    except PicardConvergenceError as err:  # a failed solve keeps its iterations on disk
        _write_iterations(out / "iterations.csv", err.diagnostics)
        raise
    _write_iterations(out / "iterations.csv", diag)

    flow = flow_diagnostics(state, pcfg.p)
    diag_rows = [
        ("u0_norm", diag.u0_norm),
        ("smallness_ok", int(diag.smallness_ok)),
        ("flow_budget", flow.flow_budget),
        ("flow_smallness_ok", int(flow.flow_budget <= pcfg.flow_smallness_c0)),
        ("iterations", diag.iterations),
        ("residual_l1", flow.residual),
        ("grad_sup_integral", flow.grad_sup_integral),
        ("grad_sup_integral_extrapolated", flow.grad_sup_integral_extrapolated),
        ("jac_det_min", flow.det_min),
        ("jac_det_max", flow.det_max),
        ("density_transport_defect", flow.transport.max_pointwise_defect),
        ("mass_defect", flow.transport.max_mass_defect),
    ]
    summary = {
        "iterations": diag.iterations,
        "contraction_factors": diag.contraction_factors,
        "grad_sup_integral": flow.grad_sup_integral,
        "density_transport_defect": flow.transport.max_pointwise_defect,
    }
    if cross_validate:
        u_ref, _ = eulerian_reference_solve(rho0, params, u0, T, pcfg.stepper)
        rel = lp_norm(grid, flow.u_final - u_ref, 2) / lp_norm(grid, u_ref, 2)
        diag_rows.append(("cross_validation_rel_l2", rel))
        summary["cross_validation_rel_l2"] = rel
    write_csv(out / "diagnostics.csv", ["quantity", "value"], diag_rows)

    write_field(out / "u0.plf1", grid, u0)
    write_field(out / "u_final_lagrangian.plf1", grid, state.u[-1])
    write_field(out / "u_final_eulerian.plf1", grid, flow.u_final)
    write_field(out / "rho_final_eulerian.plf1", grid, flow.rho_final)
    return summary


def run_oracle(out: Path, *, coef, params, stepper, times, u0) -> dict:
    grid = coef.grid
    traj = evolve(coef, params, u0, [0.0] + times, stepper)
    rows = []
    for i, (t, mat) in enumerate(zip(times, dense_semigroup_matrices(coef, params, times))):
        oracle = (mat @ u0.ravel()).reshape(u0.shape)
        rel = lp_norm(grid, traj[i + 1] - oracle, 2) / lp_norm(grid, oracle, 2)
        bmat = mat * np.broadcast_to(coef.b, (grid.dim,) + grid.shape).ravel()[None, :]
        sym = float(np.max(np.abs(bmat - bmat.T)) / np.max(np.abs(bmat)))
        rows.append((t, rel, sym))
    write_csv(out / "oracle.csv", ["t", "rel_l2_evolve_vs_expm", "expm_b_symmetry_defect"], rows)
    return {"max_rel_l2": max(r[1] for r in rows), "max_symmetry_defect": max(r[2] for r in rows)}


def run_plotdata(out: Path, *, kind, names, columns) -> dict:
    write_plotdata(out / f"{kind}.dat", names, columns)
    return {"rows": len(columns[0]) if columns else 0}


_PARSERS = {
    "kernel": parse_kernel,
    "besov": parse_besov,
    "maxreg": parse_maxreg,
    "flow": parse_flow,
    "oracle": parse_oracle,
    "plotdata": parse_plotdata,
}

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
    started = time.time()

    # parse: a config that fails here is rejected before --out exists
    try:
        cfg = json.loads(Path(args.config).read_text())
        if not isinstance(cfg, dict):
            raise ConfigError("top-level config must be a JSON object")
        with scipy.fft.set_workers(args.threads or -1):
            plan = _PARSERS[args.command](cfg, args.seed)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    # run: any failure from here on is named in the manifest
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": args.command,
        "config": cfg,
        "seed": args.seed,
        "threads": args.threads,
        "version": __version__,
    }
    try:
        with scipy.fft.set_workers(args.threads or -1):
            summary = _PIPELINES[args.command](out, **plan)
    except Exception as exc:  # the exception's own fields go with it, a dataclass as its dict
        fields = {k: dataclasses.asdict(v) if dataclasses.is_dataclass(v) else v for k, v in vars(exc).items()}
        manifest.update(
            status="numerical_failure",
            error={**fields, "type": type(exc).__name__, "message": str(exc)},
            wall_time_s=time.time() - started,
        )
        write_manifest(out / "manifest.json", manifest)
        traceback.print_exc()
        return 1
    manifest.update(status="ok", summary=summary, wall_time_s=time.time() - started)
    write_manifest(out / "manifest.json", manifest)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
