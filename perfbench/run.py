#!/usr/bin/env python3
"""lamelab benchmark: the CLI pipelines timed the way users run them.

Run from the repository root (the package is imported from ``src/``):

    python3 perfbench/run.py --workload flow --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 60

Each repeat of a workload is one ``python -m lamelab.cli <command> --threads 1``
process, timed from spawn to exit, with its peak RSS and CPU time read from
``os.wait4``. Every repeat's artifacts pass the workload's correctness gates
and, except the manifest, are byte-identical to the first repeat's; a repeat
that fails either, or exits nonzero, counts as failed. Repeats continue,
round-robin over the chosen workloads, until ``--seconds`` is used up (at
least three rounds). A fixed numpy-only loop is timed next to each repeat
and reported as ``calib_s``, so a change in machine speed shows; no metric is
rescaled by it. ``setup_s`` is the median time a fresh interpreter takes to
``import lamelab.cli``, timed once per round.

With ``--trace 1`` each workload first runs once in a traced process
(perfbench/tracer.py) that wraps every public lamelab function from outside
the package, and the run reports the per-layer metrics instead of the
end-to-end ones; the traced run's time counts against ``--seconds``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Workload

MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 60.0  # a normal child ends in under 10 s; the run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Repeat:
    wall_s: float
    cpu_s: float
    rss_mb: float
    failures: list


@dataclass
class Series:
    """Everything measured for one workload in one run."""

    workload: Workload
    config: dict
    repeats: list = field(default_factory=list)
    calib_s: list = field(default_factory=list)
    reference: dict | None = None  # artifact digests of the first repeat
    traced: dict | None = None

    @property
    def failed(self) -> int:
        failed = sum(1 for r in self.repeats if r.failures)
        if self.traced is not None and self.traced["failures"]:
            failed += 1
        return failed

    @property
    def attempted(self) -> int:
        return len(self.repeats) + (self.traced is not None)


def spawn(argv: list, env: dict, cwd: Path, stderr_path: Path):
    """Run a child to completion; returns (wall s, user+sys s, max RSS MB, exit code)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def probe_environment(root: Path, env: dict) -> dict:
    """Versions and settings the results depend on, read in a child like the CLI's."""
    code = (
        "import importlib.util, json, numpy, scipy, lamelab, lamelab._interp as i;"
        "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__,"
        "'numba_importable': importlib.util.find_spec('numba') is not None,"
        "'interp_backend': i.get_backend(), 'lamelab_file': lamelab.__file__}))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"cannot import lamelab from {root / 'src'}: {out.stderr.strip()}")
    info = json.loads(out.stdout)
    if not Path(info.pop("lamelab_file")).resolve().is_relative_to((root / "src").resolve()):
        raise RuntimeError(f"lamelab is not imported from {root / 'src'}")
    commit = None
    if (root / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = git.stdout.strip() if git.returncode == 0 else None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **info,
        "git_commit": commit,
        "child_thread_env": {var: env.get(var) for var in THREAD_VARS},
    }


def calibrate() -> float:
    """Time a fixed numpy-only loop (3D FFT round trips); tracks machine speed."""
    a = np.random.default_rng(0).standard_normal((32, 32, 32))
    start = time.perf_counter()
    for _ in range(120):
        a = np.fft.ifftn(np.fft.fftn(a)).real
    return time.perf_counter() - start


def digests(out: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file() and p.name != "manifest.json"
    }


def check_artifacts(series: Series, out: Path, exit_code: int) -> list:
    """Failed gates of one run: exit status, workload gates, byte identity."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        status = json.loads((out / "manifest.json").read_text()).get("status")
        failures = [] if status == "ok" else [f"manifest status {status!r}"]
        failures += series.workload.check(out, series.config)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable artifacts: {type(exc).__name__}: {exc}"]
    found = digests(out)
    if series.reference is None:
        series.reference = found
    elif found != series.reference:
        failures.append("artifacts differ from the first repeat")
    return failures


def cli_argv(series: Series, cfg_path: Path, out: Path) -> list:
    return [series.workload.command, "--config", str(cfg_path), "--out", str(out),
            "--seed", "0", "--threads", "1"]


def run_repeat(series: Series, work: Path, env: dict, root: Path, index: int) -> Repeat:
    out = work / f"{series.workload.name}-{index}"
    cfg_path = work / f"{series.workload.name}.json"
    argv = [sys.executable, "-m", "lamelab.cli"] + cli_argv(series, cfg_path, out)
    wall, cpu, rss, code = spawn(argv, env, root, work / f"{series.workload.name}-{index}.err")
    failures = check_artifacts(series, out, code)
    shutil.rmtree(out, ignore_errors=True)
    return Repeat(wall, cpu, rss, failures)


def run_traced(series: Series, work: Path, env: dict, root: Path) -> dict:
    out = work / f"{series.workload.name}-traced"
    cfg_path = work / f"{series.workload.name}.json"
    report_path = work / f"{series.workload.name}-trace.json"
    argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(report_path)]
    argv += cli_argv(series, cfg_path, out)
    wall, _, _, code = spawn(argv, env, root, work / f"{series.workload.name}-traced.err")
    report = json.loads(report_path.read_text()) if code == 0 else {"exit_code": code, "metrics": {}}
    failures = check_artifacts(series, out, report["exit_code"])
    io_bytes = sum(p.stat().st_size for p in out.iterdir() if p.is_file()) if out.is_dir() else 0
    return {"wall_s": wall, "report": report, "failures": failures, "io_bytes": io_bytes}


def time_setup(env: dict, root: Path, work: Path, index: int) -> float:
    wall, _, _, code = spawn([sys.executable, "-c", "import lamelab.cli"], env, root,
                             work / f"setup-{index}.err")
    if code != 0:
        raise RuntimeError(f"import lamelab.cli exited {code}")
    return wall


def measure(names: list, seed: int, seconds: float, trace: bool, root: Path, work: Path) -> tuple:
    """Rounds of (setup trial, then per workload a calibration loop and a repeat)
    until ``seconds`` are used, after at least MIN_ROUNDS rounds. The machine's
    speed drifts over tens of seconds here, so spreading the setup trials over
    the run, like the repeats, keeps both medians from riding one slow spell."""
    env = child_env(root)
    environment = probe_environment(root, env)
    series = []
    for name in names:
        s = Series(WORKLOADS[name], WORKLOADS[name].config(seed))
        (work / f"{name}.json").write_text(json.dumps(s.config))
        series.append(s)

    start = time.perf_counter()
    if trace:
        for s in series:
            s.traced = run_traced(s, work, env, root)
    setup = []
    while True:
        round_start = time.perf_counter()
        setup.append(time_setup(env, root, work, len(setup)))
        for s in series:
            s.calib_s.append(calibrate())
            s.repeats.append(run_repeat(s, work, env, root, len(setup)))
        now = time.perf_counter()
        # stop where the next round would end more than half a round late
        if len(setup) >= MIN_ROUNDS and (now - start) + 0.5 * (now - round_start) > seconds:
            break
    return environment, setup, series


def end_to_end(series: Series, setup: list) -> dict:
    return {
        "wall_s": {"value": statistics.median(r.wall_s for r in series.repeats), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r.rss_mb for r in series.repeats), "unit": "MB"},
    }


def per_layer(series: Series, units: dict) -> dict:
    untraced = statistics.median(r.wall_s for r in series.repeats)
    values = dict(series.traced["report"]["metrics"])
    values["io.bytes"] = series.traced["io_bytes"]
    values["cli.cpu_s"] = statistics.median(r.cpu_s for r in series.repeats)
    values["trace.overhead_frac"] = series.traced["wall_s"] / untraced - 1.0
    values["calib_s"] = statistics.median(series.calib_s)
    missing = sorted(set(units) - set(values))
    if missing and not series.traced["failures"]:
        raise RuntimeError(f"traced run did not produce {missing}")
    # a failed traced run reports 0 for what it could not measure; correct is false then
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()}


def summary_line(series: Series, setup: list) -> str:
    walls = [r.wall_s for r in series.repeats]
    return (
        f"{series.workload.name}: wall_s {statistics.median(walls):.3f} s "
        f"(median of n={len(walls)}, min {min(walls):.3f}, max {max(walls):.3f}); "
        f"setup_s {statistics.median(setup):.3f} s (n={len(setup)}); "
        f"peak_rss_mb {statistics.median(r.rss_mb for r in series.repeats):.1f} MB; "
        f"fail_frac {series.failed}/{series.attempted} = {series.failed / series.attempted:.3f} ratio; "
        f"cli.cpu_s {statistics.median(r.cpu_s for r in series.repeats):.3f} s; "
        f"calib_s {statistics.median(series.calib_s):.4f} s"
    )


def main(argv=None) -> int:
    names = sorted(WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = Path.cwd()
    if not (root / "src" / "lamelab" / "cli.py").is_file():
        print(f"error: run from a lamelab checkout; {root / 'src/lamelab/cli.py'} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    chosen = names if args.workload == "all" else [args.workload]
    work = root / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        environment, setup, series = measure(chosen, args.seed, args.seconds, bool(args.trace), root, work)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    print("environment: " + json.dumps(environment, sort_keys=True))
    results = {}
    for s in series:
        print(summary_line(s, setup))
        for r in s.repeats:
            if r.failures:
                print(f"  failed repeat: {'; '.join(r.failures)}")
        if s.traced is not None:
            if s.traced["failures"]:
                print(f"  failed traced run: {'; '.join(s.traced['failures'])}")
            functions = s.traced["report"].get("functions", {})
            for name, agg in sorted(functions.items(), key=lambda kv: -kv[1]["self_s"])[:15]:
                print(f"  self {agg['self_s']:8.3f} s  total {agg['s']:8.3f} s  calls {agg['calls']:7d}  {name}")
        try:
            metrics = per_layer(s, units) if args.trace else end_to_end(s, setup)
        except RuntimeError as exc:
            print(f"error: {s.workload.name}: {exc}", file=sys.stderr)
            return 2
        results[s.workload.name] = {
            "correct": s.failed == 0,
            "attempted": s.attempted,
            "failed": s.failed,
            "metrics": metrics,
        }
    if args.workload == "all":
        print(json.dumps({"correct": all(r["correct"] for r in results.values()), "workloads": results}))
        return 0 if all(r["correct"] for r in results.values()) else 1
    result = results[args.workload]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # on SIGTERM, unwind like on Ctrl-C: spawn() kills and reaps the running
    # child and main() removes the working directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
