"""Tests of the benchmark itself: tracer coverage, span accounting, exact counts,
artifact checks and the refusal to run without the package.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import lamelab.cli
import lamelab.grid
import lamelab.operators
from run import Series, check_artifacts
from tracer import Tracer, traced_cli
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parents[1]

TINY_FLOW = {
    "grid": {"dim": 2, "N": 16, "extent": 8.0},
    "lame": {"mu": 1.0, "lambda": 1.0},
    "rho0": {"kind": "checkerboard", "m": 0.5, "cells": 2, "sharpness": 2.0},
    "u0": {"kind": "band", "kmin": 1.0, "kmax": 3.0, "seed": 7, "amplitude": 0.05},
    "picard": {"T": 0.2, "dt": 0.05, "max_iters": 25, "tol": 1e-8},
    "cross_validate": True,
}


def traced_tiny_flow(tmp_path: Path, tag: str):
    cfg = tmp_path / "flow.json"
    cfg.write_text(json.dumps(TINY_FLOW))
    code, tracer = traced_cli(["flow", "--config", str(cfg), "--out", str(tmp_path / tag), "--threads", "1"])
    assert code == 0
    return tracer


def _bindings(modules):
    """Every function bound at module level: globals and values of module-level containers."""
    for mod in modules:
        for key, value in vars(mod).items():
            if key.startswith("__"):
                continue
            if isinstance(value, types.FunctionType):
                yield f"{mod.__name__}.{key}", value
                continue
            if isinstance(value, dict):
                values = value.values()
            elif isinstance(value, (list, tuple)):
                values = value
            else:
                continue
            for v in values:
                if isinstance(v, types.FunctionType):
                    yield f"{mod.__name__}.{key}[]", v


def test_every_binding_is_wrapped_and_restored():
    original_fftn = lamelab.grid.fftn
    original_run_flow = lamelab.cli.run_flow
    with Tracer() as tracer:
        modules = tracer.modules()
        missed = [where for where, fn in _bindings(modules) if fn in tracer.originals]
        assert missed == []
        assert len(tracer.originals) > 50
        # `from .grid import fftn` copies and the CLI's dispatch table are replaced too
        wrapped = tracer.originals[original_fftn]
        assert lamelab.grid.fftn is wrapped and lamelab.operators.fftn is wrapped
        assert lamelab.cli._PIPELINES["flow"] is tracer.originals[original_run_flow]
    assert lamelab.grid.fftn is original_fftn and lamelab.operators.fftn is original_fftn
    assert lamelab.cli._PIPELINES["flow"] is original_run_flow


def test_self_times_sum_to_root_span(tmp_path):
    tracer = traced_tiny_flow(tmp_path, "out")
    roots = [i for i, p in enumerate(tracer.parents) if p < 0]
    assert [tracer.names[i] for i in roots] == ["cli.main"]
    root = roots[0]
    root_s = tracer.ends[root] - tracer.starts[root]
    assert abs(sum(tracer.self_times()) - root_s) <= 0.01 * root_s
    for i, p in enumerate(tracer.parents):
        assert tracer.starts[i] <= tracer.ends[i]
        if p >= 0:
            assert tracer.starts[p] <= tracer.starts[i] and tracer.ends[i] <= tracer.ends[p]


def test_exact_counts_repeat(tmp_path):
    keys = ("varcoef.matvecs", "varcoef.theta_step.calls", "grid.fft.calls", "interp.points")
    first = traced_tiny_flow(tmp_path, "a").layer_metrics()
    second = traced_tiny_flow(tmp_path, "b").layer_metrics()
    assert all(first[k] > 0 for k in keys)
    assert {k: first[k] for k in keys} == {k: second[k] for k in keys}
    # matvecs count the operator applications inside theta steps only
    assert first["varcoef.matvecs"] < first["operators.lame_apply.calls"]


def test_artifacts_must_match_the_first_repeat(tmp_path):
    series = Series(Workload("w", "flow", lambda seed: {}, lambda out, cfg: []), {})
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text(json.dumps({"status": "ok", "wall_time_s": 1.0}))
    (out / "field.plf1").write_bytes(b"\x00\x01")
    assert check_artifacts(series, out, 0) == []
    (out / "manifest.json").write_text(json.dumps({"status": "ok", "wall_time_s": 2.0}))
    assert check_artifacts(series, out, 0) == []
    (out / "field.plf1").write_bytes(b"\x00\x02")
    assert check_artifacts(series, out, 0) == ["artifacts differ from the first repeat"]
    assert check_artifacts(series, out, 1) == ["exit code 1"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flow", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_seed_zero_gives_the_pinned_inputs():
    assert WORKLOADS["flow"].config(0)["u0"]["seed"] == 7
    assert WORKLOADS["probes"].config(0)["probes"]["seed"] == 300
    assert WORKLOADS["besov3d"].config(0)["fields"]["seed"] == 100
    assert WORKLOADS["kernel"].config(0)["rho0"]["seed"] == 17
    assert WORKLOADS["kernel"].config(0)["sources"] == [[64, 64]]
    assert WORKLOADS["kernel"].config(5)["rho0"]["seed"] == 17
    assert WORKLOADS["kernel"].config(5)["sources"] == [[65, 65]]
