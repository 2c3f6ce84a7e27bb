"""The four benchmark workloads: configs made from a seed, and correctness gates.

Each workload is one ``lamelab <command>`` invocation. ``config(seed)`` returns
the JSON config the CLI reads; seed 0 gives the pinned default inputs, and a
seed ``s`` shifts the workload's random-input seed by ``s`` (``kernel``: moves
its impulse, see ``kernel_config``).
``check(out, config)`` reads the artifacts the CLI wrote and returns the list
of failed gates (empty when the run is correct). Thresholds are the
acceptance suite's own (tests/test_acceptance.py).

The sizes are cut down from the standard runs so that one CLI process takes
about 5 s on a 2-core machine and a benchmark run holds several repeats.
Each workload keeps the property it was chosen for, as its ``why`` in
BENCHMARK.json says.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: Callable[[int], dict]
    check: Callable[[Path, dict], list]


def _rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _quantities(path: Path) -> dict:
    return {r["quantity"]: float(r["value"]) for r in _rows(path)}


def _finite_positive(values) -> bool:
    return all(math.isfinite(v) and v > 0 for v in values)


# -- flow ------------------------------------------------------------------------


def flow_config(seed: int) -> dict:
    # The standard scenario (scenarios.DEFAULT_FLOW_SCENARIO) at N = 64 and a
    # fifth of its horizon: 26 steps per evolve, still 4 Picard iterations.
    return {
        "grid": {"dim": 2, "N": 64, "extent": 8.0},
        "lame": {"mu": 1.0, "lambda": 1.0},
        "rho0": {"kind": "checkerboard", "m": 0.5, "cells": 2, "sharpness": 2.0},
        "u0": {"kind": "band", "kmin": 1.0, "kmax": 3.0, "seed": 7 + seed, "amplitude": 0.05},
        "picard": {"T": 1.3, "dt": 0.05, "max_iters": 25, "tol": 1e-8},
        "cross_validate": True,
    }


def check_flow(out: Path, cfg: dict) -> list:
    diag = _quantities(out / "diagnostics.csv")
    factors = [float(r["contraction_factor"]) for r in _rows(out / "iterations.csv")
               if r["contraction_factor"] != ""]
    stop_tol = cfg["picard"]["tol"] * diag["u0_norm"]
    gates = {
        # a run that does not converge exits nonzero (PicardConvergenceError)
        "converged": 0 < diag["iterations"] <= cfg["picard"]["max_iters"],
        "contraction factors <= 0.5": bool(factors) and all(f <= 0.5 for f in factors),
        "residual_l1 <= 10 stop_tol": diag["residual_l1"] <= 10.0 * stop_tol,
        "det DX in [0.5, 2]": 0.5 <= diag["jac_det_min"] <= diag["jac_det_max"] <= 2.0,
        "transport defect <= 1e-4": diag["density_transport_defect"] <= 1e-4,
        "cross-validation rel L2 <= 0.05": diag["cross_validation_rel_l2"] <= 0.05,
    }
    return [name for name, ok in gates.items() if not ok]


# -- probes ------------------------------------------------------------------------


def probes_config(seed: int) -> dict:
    return {
        "grid": {"dim": 2, "N": 32, "extent": 16.0},
        "lame": {"mu": 1.0, "lambda": 1.0},
        "rho0": {"kind": "checkerboard", "m": 0.5, "cells": 2, "sharpness": 2.0},
        "stepper": {"dt": 0.01},
        "T": 1.0,
        "probes": {"count": 3, "seed": 300 + seed},
        "norm_equiv": {"count": 1},
    }


def check_probes(out: Path, cfg: dict) -> list:
    ratios = [float(r["ratio"]) for r in _rows(out / "maxreg_probes.csv")]
    equiv = [float(r["ratio"]) for r in _rows(out / "norm_equiv.csv")]
    gates = {
        "probe ratios finite and positive": len(ratios) == cfg["probes"]["count"]
        and _finite_positive(ratios),
        "norm-equivalence ratios finite and positive": bool(equiv) and _finite_positive(equiv),
    }
    if gates["norm-equivalence ratios finite and positive"]:
        gates["norm_equiv_K <= 50"] = max(max(equiv), 1.0 / min(equiv)) <= 50.0
    return [name for name, ok in gates.items() if not ok]


# -- besov3d ------------------------------------------------------------------------


def besov3d_config(seed: int) -> dict:
    return {
        "grid": {"dim": 3, "N": 32, "extent": 16.0},
        "lame": {"mu": 1.0, "lambda": 1.0},
        "p": 3.0,
        "fields": {"count": 3, "kmin": 2.0, "kmax": 4.0, "seed": 100 + seed},
    }


def check_besov3d(out: Path, cfg: dict) -> list:
    rows = _rows(out / "besov_report.csv")
    value = {r["quantity"]: float(r["value"]) for r in rows}
    ks = [float(r["value"]) for r in rows if r["quantity"].startswith("equivalence_K_")]
    ratios = [float(r["value"]) for r in rows if r["quantity"].startswith("heat_over_lp_")]
    gates = {
        "partition defect <= 1e-12": value["partition_defect"] <= 1e-12,
        "every K finite": bool(ks) and all(math.isfinite(k) for k in ks),
        "heat/LP ratios finite and positive": bool(ratios) and _finite_positive(ratios),
    }
    return [name for name, ok in gates.items() if not ok]


# -- kernel ------------------------------------------------------------------------


def kernel_config(seed: int) -> dict:
    # Criterion 3's trig density on the N = 128 grid, stepped at dt = 5e-3
    # (20 steps per column instead of 100); a CG iteration costs as much as in
    # the standard kernel run. The seed moves the impulse within the 4 x 4
    # cells next to the centre and leaves the density alone: another density
    # seed changes the CG work by up to half (463 to 859 operator applies over
    # density seeds 18..27), a move of the impulse by under 4% (760 to 787).
    return {
        "grid": {"dim": 2, "N": 128, "extent": 16.0},
        "lame": {"mu": 1.0, "lambda": 1.0},
        "rho0": {"kind": "trig", "m": 0.5, "seed": 17, "kmax": 2.0, "gain": 1.5},
        "stepper": {"dt": 5e-3},
        "times": [0.025, 0.05, 0.1],
        "sources": [[64 + seed % 4, 64 + seed // 4 % 4]],
        "presmooth": True,
        "gradient": True,
    }


def check_kernel(out: Path, cfg: dict) -> list:
    defects = [float(r["defect"]) for r in _rows(out / "conservation.csv")]
    fits = _rows(out / "fit_summary.csv")
    gates = {
        "max conservation defect <= 1e-6": bool(defects) and max(defects) <= 1e-6,
        "kernel and gradient fits present": [r["quantity"] for r in fits] == ["kernel", "gradient"],
    }
    return [name for name, ok in gates.items() if not ok]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("flow", "flow", flow_config, check_flow),
        Workload("probes", "maxreg", probes_config, check_probes),
        Workload("besov3d", "besov", besov3d_config, check_besov3d),
        Workload("kernel", "kernel", kernel_config, check_kernel),
    )
}
