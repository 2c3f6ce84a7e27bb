import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

from lamelab.besov import BesovIndex, besov_norm_report, heat_char_weighting, heat_profile
from lamelab import cli
from lamelab.cli import main
from lamelab.fields import random_band_field
from lamelab.grid import Grid
from lamelab.io import read_csv, read_field
from lamelab.lagrangian import flow_map, grad_besov_l1, picard_solve
from lamelab.maxreg import DegenerateProbeError
from lamelab.operators import LameParams, ScaledLaplacian
from lamelab.scenarios import parse_flow, parse_maxreg


def run_cli(args):
    return main([str(a) for a in args])


def write_config(path, cfg):
    Path(path).write_text(json.dumps(cfg))
    return path


SMALL_GRID = {"dim": 2, "N": 32, "extent": 8.0}
LAME = {"mu": 1.0, "lambda": 1.0}


@pytest.fixture
def outdir(tmp_path):
    return tmp_path / "out"


class TestFlowCommand:
    def test_zero_scenario(self, tmp_path, outdir):
        cfg = {
            "grid": SMALL_GRID,
            "lame": LAME,
            "rho0": {"kind": "checkerboard", "m": 0.5, "sharpness": 2.0},
            "u0": {"kind": "zero"},
            "picard": {"T": 0.5, "dt": 0.1},
        }
        path = write_config(tmp_path / "flow.json", cfg)
        assert run_cli(["flow", "--config", path, "--out", outdir]) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["config"] == cfg  # config echo round-trips
        _, u_final = read_field(outdir / "u_final_lagrangian.plf1")
        assert np.max(np.abs(u_final)) == 0.0
        assert (outdir / "iterations.csv").exists()
        assert (outdir / "diagnostics.csv").exists()

    def test_numerical_failure_writes_manifest(self, tmp_path, outdir):
        cfg = {
            "grid": SMALL_GRID,
            "lame": LAME,
            "rho0": {"kind": "constant"},
            "u0": {"kind": "band", "seed": 1, "amplitude": 0.05, "kmin": 1, "kmax": 3},
            "picard": {"T": 0.5, "dt": 0.1, "max_iters": 1, "tol": 1e-16},
        }
        path = write_config(tmp_path / "flow.json", cfg)
        assert run_cli(["flow", "--config", path, "--out", outdir]) == 1
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["status"] == "numerical_failure"
        assert manifest["error"]["type"] == "PicardConvergenceError"

    def test_horizon_of_one_step(self, tmp_path, outdir):
        # T = dt: the solve steps on the three nodes of varcoef.time_grid, half a dt apart
        cfg = {
            "grid": SMALL_GRID,
            "lame": LAME,
            "rho0": {"kind": "checkerboard", "m": 0.5, "sharpness": 2.0},
            "u0": {"kind": "band", "seed": 1, "amplitude": 0.05, "kmin": 1, "kmax": 3},
            "picard": {"T": 0.1, "dt": 0.1},
            "cross_validate": True,
        }
        path = write_config(tmp_path / "flow.json", cfg)
        assert run_cli(["flow", "--config", path, "--out", outdir]) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["summary"]["iterations"] >= 1

    def test_flow_budget_rows(self, tmp_path):
        # the flow-map budget of the converged state, and its test against picard.c0
        cfg = {
            "grid": SMALL_GRID,
            "lame": LAME,
            "rho0": {"kind": "checkerboard", "m": 0.5, "sharpness": 2.0},
            "u0": {"kind": "band", "seed": 1, "amplitude": 0.05, "kmin": 1, "kmax": 3},
            "picard": {"T": 0.3, "dt": 0.1},
        }
        plan = parse_flow(cfg, 0)
        state, _ = picard_solve(plan["rho0"], plan["params"], plan["u0"], plan["T"], plan["pcfg"])
        budget = grad_besov_l1(state, flow_map(state), plan["pcfg"].p)
        rows = {}
        for side, c0 in (("below", budget * (1.0 - 1e-9)), ("above", budget * (1.0 + 1e-9))):
            path = write_config(tmp_path / f"{side}.json", {**cfg, "picard": {**cfg["picard"], "c0": c0}})
            assert run_cli(["flow", "--config", path, "--out", tmp_path / side]) == 0
            _, rows[side] = read_csv(tmp_path / side / "diagnostics.csv")
        assert [r[0] for r in rows["below"][:4]] == ["u0_norm", "smallness_ok", "flow_budget", "flow_smallness_ok"]
        assert float(rows["below"][2][1]) == pytest.approx(budget, rel=1e-14)
        assert (rows["below"][3][1], rows["above"][3][1]) == ("0", "1")
        assert rows["below"][:3] + rows["below"][4:] == rows["above"][:3] + rows["above"][4:]


    def test_3d_standard_blocks_meet_criteria_9_and_10_gates(self, tmp_path, outdir):
        # the standard scenario's blocks in 3D: flow map, nonlinearity, flow
        # inversion, pushforward and Eulerian reference on the 3D stencil
        cfg = {
            "grid": {"dim": 3, "N": 16, "extent": 8.0},
            "lame": LAME,
            "rho0": {"kind": "checkerboard", "m": 0.5, "cells": 2, "sharpness": 2.0},
            "u0": {"kind": "band", "kmin": 1.0, "kmax": 3.0, "seed": 7, "amplitude": 0.05},
            "picard": {"T": 1.0, "dt": 0.05, "max_iters": 25, "tol": 1e-8},
            "cross_validate": True,
        }
        path = write_config(tmp_path / "flow.json", cfg)
        assert run_cli(["flow", "--config", path, "--out", outdir]) == 0
        diag = {name: float(value) for name, value in read_csv(outdir / "diagnostics.csv")[1]}
        iterations = read_csv(outdir / "iterations.csv")[1]
        factors = [float(row[3]) for row in iterations if row[3] != ""]
        stop_tol = cfg["picard"]["tol"] * diag["u0_norm"]
        assert float(iterations[-1][2]) <= stop_tol
        assert factors and max(factors) <= 0.5
        assert diag["residual_l1"] <= 10.0 * stop_tol
        assert 0.5 <= diag["jac_det_min"] <= diag["jac_det_max"] <= 2.0
        assert diag["density_transport_defect"] <= 1e-4
        assert diag["cross_validation_rel_l2"] <= 0.05


class TestKernelCommand:
    def test_constant_density_fit(self, tmp_path, outdir):
        cfg = {
            "grid": {"dim": 2, "N": 64, "extent": 8.0},
            "lame": {"mu": 1.0, "lambda": -1.0},  # scalar heat flow
            "rho0": {"kind": "constant"},
            "times": [0.1, 0.2],
            "stepper": {"dt": 1e-3},
        }
        path = write_config(tmp_path / "kernel.json", cfg)
        assert run_cli(["kernel", "--config", path, "--out", outdir]) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["summary"]["c_dec"] == pytest.approx(4.0, rel=0.1)
        assert (outdir / "shells.csv").exists()
        assert (outdir / "fit_summary.csv").exists()

    def test_thin_trust_window_is_numerical_failure(self, tmp_path, outdir):
        # 2 sqrt(t) ~ L/4: the fit finds too few shells after the solves ran
        cfg = {
            "grid": SMALL_GRID,
            "lame": LAME,
            "rho0": {"kind": "constant"},
            "times": [0.9],
            "stepper": {"dt": 0.05},
        }
        path = write_config(tmp_path / "kernel.json", cfg)
        assert run_cli(["kernel", "--config", path, "--out", outdir]) == 1
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["status"] == "numerical_failure"
        assert manifest["error"]["type"] == "EnvelopeFitError"
        assert "trust window" in manifest["error"]["message"]


class TestMaxregCommand:
    def test_degenerate_probe_is_numerical_failure(self, tmp_path, outdir, monkeypatch):
        def degenerate(*args, **kwargs):
            raise DegenerateProbeError("degenerate probe: constant-coefficient profile vanished")

        monkeypatch.setattr(cli, "norm_equiv_ratio", degenerate)
        cfg = {
            "grid": {"dim": 2, "N": 16, "extent": 8.0},
            "lame": LAME,
            "rho0": {"kind": "constant"},
            "probes": {"count": 1},
            "T": 0.1,
            "stepper": {"dt": 0.05},
            "norm_equiv": {"count": 1},
        }
        path = write_config(tmp_path / "maxreg.json", cfg)
        assert run_cli(["maxreg", "--config", path, "--out", outdir]) == 1
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["status"] == "numerical_failure"
        assert manifest["error"]["type"] == "DegenerateProbeError"

    def test_threads_set_fft_workers_and_keep_artifacts(self, tmp_path, monkeypatch):
        workers, solve = [], cli.solve_linear_maxreg

        def recording(*args, **kwargs):
            workers.append(scipy.fft.get_workers())
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli, "solve_linear_maxreg", recording)
        cfg = {
            "grid": SMALL_GRID,
            "lame": LAME,
            "rho0": {"kind": "checkerboard", "m": 0.5, "sharpness": 2.0},
            "probes": {"count": 2},
            "T": 0.2,
            "stepper": {"dt": 0.05},
            "norm_equiv": {"count": 1},
        }
        path = write_config(tmp_path / "maxreg.json", cfg)
        artifacts = []
        for threads in (1, 2, 0):
            out = tmp_path / f"threads{threads}"
            assert run_cli(["maxreg", "--config", path, "--out", out, "--threads", threads]) == 0
            artifacts.append({f.name: f.read_bytes() for f in out.iterdir() if f.name != "manifest.json"})
        assert len(artifacts[0]) == 3
        assert artifacts[0] == artifacts[1] == artifacts[2]
        assert workers == [1, 1, 2, 2, os.cpu_count(), os.cpu_count()]

    def test_horizon_of_one_step(self, tmp_path, outdir):
        # T = dt: the forcing is sampled on the same three nodes of varcoef.time_grid the solve steps on
        cfg = {
            "grid": {"dim": 2, "N": 16, "extent": 8.0},
            "lame": LAME,
            "rho0": {"kind": "constant"},
            "probes": {"count": 1},
            "T": 0.01,
            "stepper": {"dt": 0.01},
        }
        path = write_config(tmp_path / "maxreg.json", cfg)
        assert run_cli(["maxreg", "--config", path, "--out", outdir]) == 0
        header, rows = read_csv(outdir / "maxreg_probes.csv")
        assert len(rows) == 1
        assert np.isfinite(float(rows[0][header.index("ratio")]))


class TestLargestStep:
    """dt is the largest step of every command, also when T is not a whole number of steps."""

    @staticmethod
    def _record_steps(monkeypatch):
        import lamelab.lagrangian
        import lamelab.varcoef

        steps, step = [], lamelab.varcoef.theta_step

        def recording(grid, rho, params, u_old, dt, *args, **kwargs):
            steps.append(dt)
            return step(grid, rho, params, u_old, dt, *args, **kwargs)

        monkeypatch.setattr(lamelab.varcoef, "theta_step", recording)
        monkeypatch.setattr(lamelab.lagrangian, "theta_step", recording)  # the Eulerian reference's steps
        return steps

    def test_maxreg(self, tmp_path, outdir, monkeypatch):
        steps = self._record_steps(monkeypatch)
        cfg = {
            "grid": {"dim": 2, "N": 16, "extent": 8.0},
            "lame": LAME,
            "rho0": {"kind": "checkerboard", "m": 0.5, "sharpness": 2.0},
            "probes": {"count": 1},
            "T": 0.25,
            "stepper": {"dt": 0.1},
        }
        path = write_config(tmp_path / "maxreg.json", cfg)
        assert run_cli(["maxreg", "--config", path, "--out", outdir]) == 0
        assert steps and max(steps) <= 0.1

    def test_flow_and_its_eulerian_reference(self, tmp_path, outdir, monkeypatch):
        steps = self._record_steps(monkeypatch)
        cfg = {
            "grid": {"dim": 2, "N": 16, "extent": 8.0},
            "lame": LAME,
            "rho0": {"kind": "checkerboard", "m": 0.5, "sharpness": 2.0},
            "u0": {"kind": "band", "seed": 1, "amplitude": 0.05, "kmin": 1, "kmax": 3},
            "picard": {"T": 0.25, "dt": 0.1},
            "cross_validate": True,
        }
        path = write_config(tmp_path / "flow.json", cfg)
        assert run_cli(["flow", "--config", path, "--out", outdir]) == 0
        assert steps and max(steps) <= 0.1


class TestValidation:
    def test_whole_number_floats_are_integers(self):
        cfg = {
            "grid": {"dim": 2.0, "N": 16.0, "extent": 8.0},
            "lame": LAME,
            "rho0": {"kind": "constant"},
            "u0": {"kind": "zero"},
            "picard": {"T": 0.2, "dt": 0.1, "max_iters": 3.0},
        }
        plan = parse_flow(cfg, 0)
        assert (plan["rho0"].grid.dim, plan["rho0"].grid.n, plan["pcfg"].max_iters) == (2, 16, 3)

    @pytest.mark.parametrize("command", ["maxreg", "flow"])
    def test_horizon_checked_without_its_nodes(self, command):
        # a million steps are counted at parse time, not laid out as a million nodes (8 MB)
        import tracemalloc

        base = {"grid": {"dim": 2, "N": 16, "extent": 8.0}, "lame": LAME, "rho0": {"kind": "constant"}}
        if command == "maxreg":
            parse, cfg = parse_maxreg, {**base, "T": 1.0, "stepper": {"dt": 1e-6}}
        else:
            parse, cfg = parse_flow, {**base, "u0": {"kind": "zero"}, "picard": {"T": 1.0, "dt": 1e-6}}
        tracemalloc.start()
        try:
            parse(cfg, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_malformed_json_exits_2(self, tmp_path, outdir):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["besov", "--config", bad, "--out", outdir]) == 2
        assert not (outdir / "manifest.json").exists()

    def test_missing_keys_exit_2(self, tmp_path, outdir):
        path = write_config(tmp_path / "flow.json", {"grid": SMALL_GRID})
        assert run_cli(["flow", "--config", path, "--out", outdir]) == 2

    def test_invalid_grid_exit_2(self, tmp_path, outdir):
        cfg = {"grid": {"dim": 2, "N": 12, "extent": 8.0}, "lame": LAME}
        path = write_config(tmp_path / "b.json", cfg)
        assert run_cli(["besov", "--config", path, "--out", outdir]) == 2


class TestConfigErrorWritesNothing:
    # exit 2 comes before --out is created, also when the bad block is used after other artifacts are due
    BASE = {"grid": {"dim": 2, "N": 16, "extent": 8.0}, "lame": LAME}
    RHO0 = {"rho0": {"kind": "constant"}}  # every command but besov reads a density
    MAXREG = {"probes": {"count": 1}, "T": 0.1, "stepper": {"dt": 0.05}}
    # the envelope fit needs more shells than a 16^2 grid holds
    KERNEL = {"grid": {"dim": 2, "N": 64, "extent": 8.0}, "times": [0.1], "stepper": {"dt": 0.01}}
    CASES = {
        "kernel_no_times": ("kernel", {**KERNEL, "times": []}, []),
        "kernel_nan_time": ("kernel", {**KERNEL, "times": [0.1, float("nan")]}, []),
        "kernel_zero_time": ("kernel", {**KERNEL, "times": [0.0, 0.1]}, []),
        "kernel_source_outside": ("kernel", {**KERNEL, "sources": [[99, 3]]}, []),
        "kernel_source_negative": ("kernel", {**KERNEL, "sources": [[-3, 4]]}, []),
        "kernel_source_short": ("kernel", {**KERNEL, "sources": [[8]]}, []),
        "kernel_source_fractional": ("kernel", {**KERNEL, "sources": [[8.5, 3]]}, []),
        "norm_equiv_s": ("maxreg", {**MAXREG, "norm_equiv": {"s": 1.5}}, []),
        "norm_equiv_q": ("maxreg", {**MAXREG, "norm_equiv": {"q": 0.0}}, []),
        "davies_alpha": ("kernel", {**KERNEL, "davies": {"alphas": [0.0, -1.0]}}, []),
        "davies_u0": ("kernel", {**KERNEL, "davies": {"u0": {"kind": "zero"}}}, []),
        # exp(psi) overflows: the twist weights are built before any kernel column
        "davies_overflow": ("kernel", {**KERNEL, "davies": {"alphas": [0.0, 1000.0]}}, []),
        "grid_not_object": ("maxreg", {**MAXREG, "grid": 5}, []),
        "stepper_not_object": ("maxreg", {**MAXREG, "stepper": 5}, []),
        "fields_not_object": ("besov", {"fields": []}, []),
        "besov_q_zero": ("besov", {"q": 0}, []),
        "besov_no_fields": ("besov", {"fields": {"count": 0}}, []),
        "besov_p_word": ("besov", {"p": "three"}, []),
        "maxreg_p_word": ("maxreg", {**MAXREG, "p": "three"}, []),
        "maxreg_T_zero": ("maxreg", {**MAXREG, "T": 0}, []),
        # the stepper block takes only dt: the CG tolerance is not a config key
        "kernel_cg_tol_one": ("kernel", {**KERNEL, "stepper": {"dt": 0.01, "cg_tol": 1.0}}, []),
        # every step is Crank-Nicolson: a config asking for backward Euler is refused, not run as CN
        "stepper_theta_one": ("maxreg", {**MAXREG, "stepper": {"dt": 0.05, "theta": 1.0}}, []),
        "maxreg_infinite_dt": ("maxreg", {**MAXREG, "stepper": {"dt": float("inf")}}, []),
        "maxreg_nan_s": ("maxreg", {**MAXREG, "s": float("nan")}, []),
        "oracle_no_times": ("oracle", {"times": []}, []),
        # nor is the CG iteration cap, a constant of the stepper
        "oracle_cg_maxiter_zero": ("oracle", {"times": [0.05], "stepper": {"dt": 0.01, "cg_maxiter": 0}}, []),
        "flow_nan_horizon": ("flow", {"u0": {"kind": "zero"}, "picard": {"T": float("nan"), "dt": 0.1}}, []),
        # T/dt overflows to an infinite step count
        "flow_step_count_overflow": ("flow", {"u0": {"kind": "zero"}, "picard": {"T": 1e300, "dt": 1e-300}}, []),
        "maxreg_step_count_overflow": ("maxreg", {**MAXREG, "T": 1e300, "stepper": {"dt": 1e-300}}, []),
        "flow_infinite_dt": ("flow", {"u0": {"kind": "zero"}, "picard": {"T": 0.2, "dt": float("inf")}}, []),
        # p = 1 in 2D puts the gradient budget at s = n/p = 2, outside the Besov range
        "flow_p_one": ("flow", {"u0": {"kind": "zero"}, "picard": {"T": 0.2, "dt": 0.1, "p": 1.0}}, []),
        "flow_nan_amplitude": ("flow", {"u0": {"kind": "band", "seed": 1, "amplitude": float("nan")},
                                        "picard": {"T": 0.2, "dt": 0.1}}, []),
        "besov_negative_seed": ("besov", {"fields": {"count": 1, "seed": -1}}, []),
        "oracle_zero_density": ("oracle", {"rho0": {"kind": "constant", "value": 0}}, []),
        # both errors are relative to a reference that a zero u0 makes zero
        "oracle_zero_u0": ("oracle", {"u0": {"kind": "zero"}, "times": [0.05], "stepper": {"dt": 0.01}}, []),
        "flow_cross_validate_zero_u0": ("flow", {"u0": {"kind": "zero"}, "picard": {"T": 0.2, "dt": 0.1},
                                                 "cross_validate": True}, []),
        "flow_max_iters_zero": ("flow", {"u0": {"kind": "band", "seed": 1, "amplitude": 0.01},
                                         "picard": {"T": 0.2, "dt": 0.1, "max_iters": 0}}, []),
        # no update norm falls to a tolerance <= 0 or NaN
        "flow_tol_negative": ("flow", {"u0": {"kind": "band", "seed": 1, "amplitude": 0.01},
                                       "picard": {"T": 0.2, "dt": 0.1, "tol": -1e-8}}, []),
        "flow_tol_nan": ("flow", {"u0": {"kind": "band", "seed": 1, "amplitude": 0.01},
                                  "picard": {"T": 0.2, "dt": 0.1, "tol": float("nan")}}, []),
        # the certified-smallness constants bound norms: finite and > 0
        "flow_c0_nan": ("flow", {"u0": {"kind": "zero"}, "picard": {"T": 0.2, "dt": 0.1, "c0": float("nan")}}, []),
        "flow_c0_negative": ("flow", {"u0": {"kind": "zero"}, "picard": {"T": 0.2, "dt": 0.1, "c0": -1}}, []),
        "flow_c_negative": ("flow", {"u0": {"kind": "zero"}, "picard": {"T": 0.2, "dt": 0.1, "c": -1}}, []),
        # the twisted flow steps the times in the given order
        "davies_unsorted_times": ("kernel", {**KERNEL, "times": [0.2, 0.1], "davies": {"alphas": [0.0]}}, []),
        "negative_threads": ("maxreg", MAXREG, ["--threads", -3]),
        # integer settings are whole numbers and on/off settings true or false, not coerced
        "maxreg_fractional_count": ("maxreg", {**MAXREG, "probes": {"count": 1.9}}, []),
        "grid_fractional_N": ("maxreg", {**MAXREG, "grid": {"dim": 2, "N": 16.7, "extent": 8.0}}, []),
        "flow_cross_validate_word": ("flow", {"u0": {"kind": "band", "seed": 1, "amplitude": 0.01},
                                              "picard": {"T": 0.2, "dt": 0.1}, "cross_validate": "no"}, []),
        "kernel_presmooth_number": ("kernel", {**KERNEL, "presmooth": 1}, []),
        # a misspelled or unknown key, in any block or at the top level, is refused, not left at its default
        "flow_picard_max_iter": ("flow", {"u0": {"kind": "zero"}, "picard": {"T": 0.2, "dt": 0.1, "max_iter": 3}}, []),
        "flow_picard_tolerance": ("flow", {"u0": {"kind": "zero"},
                                           "picard": {"T": 0.2, "dt": 0.1, "tolerance": 1e-6}}, []),
        "flow_cross_validat": ("flow", {"u0": {"kind": "band", "seed": 1, "amplitude": 0.01},
                                        "picard": {"T": 0.2, "dt": 0.1}, "cross_validat": True}, []),
        # flow steps at picard.dt: a stepper block would be ignored
        "flow_stepper_block": ("flow", {"u0": {"kind": "zero"}, "picard": {"T": 0.2, "dt": 0.1},
                                        "stepper": {"dt": 0.05}}, []),
        "flow_zero_u0_amplitude": ("flow", {"u0": {"kind": "zero", "amplitude": 0.01},
                                            "picard": {"T": 0.2, "dt": 0.1}}, []),
        "flow_band_u0_kmx": ("flow", {"u0": {"kind": "band", "seed": 1, "amplitude": 0.01, "kmx": 2.0},
                                      "picard": {"T": 0.2, "dt": 0.1}}, []),
        "maxreg_probe": ("maxreg", {**MAXREG, "probe": {"count": 2}}, []),
        "maxreg_probes_cout": ("maxreg", {**MAXREG, "probes": {"cout": 2}}, []),
        "norm_equiv_cout": ("maxreg", {**MAXREG, "norm_equiv": {"cout": 2}}, []),
        "rho0_vlaue": ("maxreg", {**MAXREG, "rho0": {"kind": "constant", "vlaue": 2.0}}, []),
        "rho0_checkerboard_seed": ("maxreg", {**MAXREG, "rho0": {"kind": "checkerboard", "m": 0.5, "seed": 3}}, []),
        "rho0_trig_kmx": ("maxreg", {**MAXREG, "rho0": {"kind": "trig", "m": 0.5, "kmx": 2.0}}, []),
        "grid_n": ("maxreg", {**MAXREG, "grid": {"dim": 2, "N": 16, "extent": 8.0, "n": 32}}, []),
        "lame_nu": ("besov", {"lame": {**LAME, "nu": 0.3}}, []),
        "besov_fields_cont": ("besov", {"fields": {"cont": 1}}, []),
        "besov_rho0": ("besov", {"rho0": {"kind": "constant"}}, []),
        "kernel_davies_alpha": ("kernel", {**KERNEL, "davies": {"alpha": [0.0]}}, []),
        "kernel_sigma": ("kernel", {**KERNEL, "sigma": 0.1}, []),
        "oracle_time": ("oracle", {"u0": {"kind": "band", "seed": 1, "amplitude": 1.0}, "time": [0.05]}, []),
        # JSON's Infinity parses to inf: the grid extent and the Lame constants are finite
        "besov_infinite_extent": ("besov", {"grid": {"dim": 2, "N": 16, "extent": float("inf")}}, []),
        "besov_infinite_lambda": ("besov", {"lame": {"mu": 1.0, "lambda": float("inf")}}, []),
        "besov_infinite_mu": ("besov", {"lame": {"mu": float("inf"), "lambda": 1.0}}, []),
        "kernel_infinite_mu": ("kernel", {**KERNEL, "lame": {"mu": float("inf"), "lambda": 1.0}}, []),
        "maxreg_infinite_mu": ("maxreg", {**MAXREG, "lame": {"mu": float("inf"), "lambda": 1.0}}, []),
        "flow_infinite_mu": ("flow", {"lame": {"mu": float("inf"), "lambda": 1.0},
                                      "u0": {"kind": "band", "seed": 1, "amplitude": 0.01},
                                      "picard": {"T": 0.2, "dt": 0.1}}, []),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_2_and_empty_out(self, case, tmp_path, outdir):
        command, extra, flags = self.CASES[case]
        base = self.BASE if command == "besov" else {**self.BASE, **self.RHO0}
        path = write_config(tmp_path / "cfg.json", {**base, **extra})
        assert run_cli([command, "--config", path, "--out", outdir, *flags]) == 2
        assert not outdir.exists()


class TestRunFailureWritesManifest:
    # after parsing, any exception exits 1 with a manifest naming it, also a ValueError
    CASES = {
        "kernel": {**TestConfigErrorWritesNothing.BASE, **TestConfigErrorWritesNothing.RHO0,
                   **TestConfigErrorWritesNothing.KERNEL},
        "besov": {"grid": SMALL_GRID, "lame": LAME, "fields": {"count": 1}, "s_list": [0.5]},
        "maxreg": {**TestConfigErrorWritesNothing.BASE, **TestConfigErrorWritesNothing.RHO0,
                   **TestConfigErrorWritesNothing.MAXREG},
        "flow": {
            "grid": {"dim": 2, "N": 16, "extent": 8.0},
            "lame": LAME,
            "rho0": {"kind": "constant"},
            "u0": {"kind": "zero"},
            "picard": {"T": 0.2, "dt": 0.1},
        },
        "oracle": {
            "grid": {"dim": 2, "N": 8, "extent": 8.0},
            "lame": LAME,
            "rho0": {"kind": "constant"},
            "times": [0.01],
            "stepper": {"dt": 1e-3},
        },
        "plotdata": {"kind": "iterations"},
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_writer_value_error_exits_1(self, command, tmp_path, outdir, monkeypatch):
        def failing(*args, **kwargs):
            raise ValueError("disk says no")

        for writer in ("write_csv", "write_field", "write_plotdata"):
            monkeypatch.setattr(cli, writer, failing)
        cfg = dict(self.CASES[command])
        if command == "plotdata":
            src = tmp_path / "iterations.csv"
            src.write_text("k,solution_norm,update_norm,contraction_factor\r\n1,1.0,0.5,\r\n2,1.0,0.1,0.2\r\n")
            cfg["input"] = str(src)
        path = write_config(tmp_path / "cfg.json", cfg)
        assert run_cli([command, "--config", path, "--out", outdir]) == 1
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["status"] == "numerical_failure"
        assert manifest["error"] == {"type": "ValueError", "message": "disk says no"}


class TestDeterminism:
    def test_besov_artifacts_bit_identical(self, tmp_path):
        cfg = {
            "grid": SMALL_GRID,
            "lame": LAME,
            "fields": {"count": 3, "kmin": 2, "kmax": 4, "seed": 5},
            "s_list": [0.5],
        }
        path = write_config(tmp_path / "besov.json", cfg)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run_cli(["besov", "--config", path, "--out", out1, "--seed", 9]) == 0
        assert run_cli(["besov", "--config", path, "--out", out2, "--seed", 9]) == 0
        a = (out1 / "besov_report.csv").read_bytes()
        b = (out2 / "besov_report.csv").read_bytes()
        assert a == b


class TestBesovCommand:
    def test_rows_equal_per_s_reports(self, tmp_path, outdir):
        # the CLI weights each field's profiles per s; the public reports evaluate each s afresh
        cfg = {
            "grid": {"dim": 3, "N": 16, "extent": 8.0},
            "lame": LAME,
            "p": 3.0,
            "fields": {"count": 2, "kmin": 2, "kmax": 3, "seed": 4},
        }
        path = write_config(tmp_path / "besov.json", cfg)
        assert run_cli(["besov", "--config", path, "--out", outdir]) == 0
        _, rows = read_csv(outdir / "besov_report.csv")
        grid = Grid(3, 16, 8.0)
        fields = [random_band_field(grid, 2.0, 3.0, 4 + i, ncomp=3) for i in range(2)]
        expected = [("partition_defect", 0.0, None, None)]
        for s in (0.5, -0.5, 0.0):
            for gname, gen in (("laplacian", ScaledLaplacian(1.0)), ("lame", LameParams(1.0, 1.0))):
                ratios = []
                for i, u in enumerate(fields):
                    b = besov_norm_report(grid, u, BesovIndex(s, 3.0))
                    h = heat_char_weighting(*heat_profile(grid, u, 3.0, 1, gen), s, 1.0)
                    ratios.append(h.value / b.value)
                    expected.append((f"heat_over_lp_{gname}_{i}", s, ratios[-1], max(b.leakage, h.leakage)))
                expected.append((f"equivalence_K_{gname}", s, max(max(ratios), 1.0 / min(ratios)), 0.0))
        assert [r[0] for r in rows] == [e[0] for e in expected]
        for row, (_, s, value, leak) in zip(rows[1:], expected[1:]):
            assert (float(row[1]), float(row[4]), float(row[5])) == (s, value, leak)

    def test_rejects_k_not_above_half_s(self, tmp_path, outdir):
        cfg = {"grid": SMALL_GRID, "lame": LAME, "k": 0, "s_list": [0.5], "fields": {"count": 1}}
        path = write_config(tmp_path / "besov.json", cfg)
        assert run_cli(["besov", "--config", path, "--out", outdir]) == 2
        assert not outdir.exists()


class TestOracleCommand:
    def test_rough_density_oracle(self, tmp_path, outdir):
        cfg = {
            "grid": {"dim": 2, "N": 16, "extent": 8.0},
            "lame": LAME,
            "rho0": {"kind": "checkerboard", "m": 0.5},
            "times": [0.05],
            "stepper": {"dt": 1e-3},
            "u0": {"kind": "band", "seed": 2, "amplitude": 1.0, "kmin": 1, "kmax": 3},
        }
        path = write_config(tmp_path / "oracle.json", cfg)
        assert run_cli(["oracle", "--config", path, "--out", outdir]) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["summary"]["max_rel_l2"] < 1e-3
        assert manifest["summary"]["max_symmetry_defect"] < 1e-10

    def test_size_checked_before_stepping(self, tmp_path, outdir, monkeypatch):
        # 2 x 64^2 unknowns exceed the dense oracle's limit: rejected before any step
        def never(*args, **kwargs):
            raise AssertionError("evolve ran on a config the oracle cannot check")

        monkeypatch.setattr(cli, "evolve", never)
        cfg = {
            "grid": {"dim": 2, "N": 64, "extent": 8.0},
            "lame": LAME,
            "rho0": {"kind": "constant"},
            "times": [0.2],
        }
        path = write_config(tmp_path / "oracle.json", cfg)
        assert run_cli(["oracle", "--config", path, "--out", outdir]) == 2
        assert not outdir.exists()


class TestPlotdata:
    def test_shells_to_columns(self, tmp_path, outdir):
        kcfg = {
            "grid": {"dim": 2, "N": 64, "extent": 8.0},
            "lame": {"mu": 1.0, "lambda": -1.0},
            "rho0": {"kind": "constant"},
            "times": [0.1],
            "stepper": {"dt": 2e-3},
            "gradient": False,
        }
        kpath = write_config(tmp_path / "kernel.json", kcfg)
        kout = tmp_path / "kout"
        assert run_cli(["kernel", "--config", kpath, "--out", kout]) == 0
        pcfg = {"kind": "shells", "input": str(kout / "shells.csv")}
        ppath = write_config(tmp_path / "plot.json", pcfg)
        assert run_cli(["plotdata", "--config", ppath, "--out", outdir]) == 0
        lines = (outdir / "shells.dat").read_text().splitlines()
        assert lines[0].startswith("# ")
        assert len(lines) > 10
        z, logv = map(float, lines[1].split())
        assert np.isfinite(z) and np.isfinite(logv)

    def test_missing_input_exits_2(self, tmp_path, outdir):
        pcfg = {"kind": "shells", "input": str(tmp_path / "nope.csv")}
        ppath = write_config(tmp_path / "plot.json", pcfg)
        assert run_cli(["plotdata", "--config", ppath, "--out", outdir]) == 2

    def test_unknown_key_exits_2(self, tmp_path, outdir):
        src = tmp_path / "iterations.csv"
        src.write_text("k,solution_norm,update_norm,contraction_factor\r\n")
        pcfg = {"kind": "iterations", "input": str(src), "output": "x.dat"}
        ppath = write_config(tmp_path / "plot.json", pcfg)
        assert run_cli(["plotdata", "--config", ppath, "--out", outdir]) == 2
        assert not outdir.exists()

    def test_empty_iterations_header_only(self, tmp_path, outdir):
        src = tmp_path / "iterations.csv"
        src.write_text("k,solution_norm,update_norm,contraction_factor\r\n")
        pcfg = {"kind": "iterations", "input": str(src)}
        ppath = write_config(tmp_path / "plot.json", pcfg)
        assert run_cli(["plotdata", "--config", ppath, "--out", outdir]) == 0
        lines = (outdir / "iterations.dat").read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("# ")


def test_cli_import_leaves_heavy_scipy_modules_out():
    # scipy.sparse (CG) and scipy.integrate (cumulative trapezoid) were a
    # quarter of a second of every CLI start; the package no longer needs them
    code = "import sys, lamelab.cli; print(sorted({'scipy.sparse', 'scipy.integrate'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
