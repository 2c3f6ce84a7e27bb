"""Span tracer for the traced benchmark run, applied from outside the package.

``Tracer.install()`` wraps every public function defined in a ``lamelab``
module and replaces every binding of it: the defining module's attribute,
each ``from .x import f`` copy in the other modules, and values of
module-level dicts (the CLI's pipeline table). Nothing under ``src/`` is
changed. Each call records a span (name, start, end, parent) in memory;
``layer_metrics()`` turns the spans into the per-layer metrics listed in
BENCHMARK.json. The wrappers keep one call stack, so trace one thread only
(the benchmark runs the CLI with ``--threads 1``).

Run as a script, it is the traced CLI process:

    PYTHONPATH=src python3 perfbench/tracer.py report.json flow --config c.json --out o --threads 1

runs ``lamelab.cli.main`` with the remaining arguments under the tracer and
writes the exit code, the per-layer metrics and per-function totals to
``report.json``.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import pkgutil
import sys
import time
import types
from collections import Counter, defaultdict

import numpy as np


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _query_points(args, kwargs, result):
    coords = _arg(args, kwargs, 1, "coords")
    return int(coords.size // coords.shape[0])


PACKAGE = "lamelab"

# Work counts attached to a span when its call returns: span name -> f(args, kwargs, result).
AMOUNTS = {
    "grid.fftn": lambda a, k, r: r.size,
    "grid.ifftn": lambda a, k, r: r.size,
    "_interp.interp_periodic": _query_points,
    "besov.besov_norm_report": lambda a, k, r: float(_arg(a, k, 2, "idx").p),
    "besov.heat_char_norm_report": lambda a, k, r: len(r.per_level),
    "lagrangian.picard_solve": lambda a, k, r: r[1].iterations,
}


class Tracer:
    """In-memory spans for every call to a public lamelab function."""

    def __init__(self):
        self.names: list = []
        self.parents: list = []
        self.starts: list = []
        self.ends: list = []
        self.amounts: dict = {}  # span index -> work count from AMOUNTS
        self.raised: Counter = Counter()  # (span name, exception type) -> count
        self.originals: dict = {}  # original function -> its wrapper
        self._stack = [-1]
        self._patched: list = []  # (namespace dict, key, original value)

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        names, parents, starts, ends, stack = self.names, self.parents, self.starts, self.ends, self._stack
        amount = AMOUNTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(math.nan)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if amount is not None:
                self.amounts[idx] = amount(args, kwargs, result)
            return result

        return traced

    def modules(self) -> list:
        root = importlib.import_module(PACKAGE)
        found = [root]
        for info in pkgutil.walk_packages(root.__path__, PACKAGE + "."):
            found.append(importlib.import_module(info.name))
        return found

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = self.modules()
        prefix = PACKAGE + "."
        for mod in modules:
            short = mod.__name__[len(prefix):] if mod.__name__.startswith(prefix) else mod.__name__
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                    and obj.__name__ == attr
                ):
                    self.originals[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in modules:
            for ns in self._namespaces(mod):
                for key, value in list(ns.items()):
                    if isinstance(value, types.FunctionType) and value in self.originals:
                        self._patched.append((ns, key, value))
                        ns[key] = self.originals[value]
        return self

    @staticmethod
    def _namespaces(mod) -> list:
        """The module's globals and its module-level dicts (dispatch tables)."""
        ns = vars(mod)
        tables = [v for k, v in ns.items() if isinstance(v, dict) and not k.startswith("__")]
        return [ns] + tables

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patched):
            ns[key] = original
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reduction ----------------------------------------------------------------

    def self_times(self) -> list:
        """Span duration minus the durations of its direct child spans."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def by_name(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds."""
        own = self.self_times()
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, name in enumerate(self.names):
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += self.ends[i] - self.starts[i]
            agg["self_s"] += own[i]
        return dict(out)

    def layer_metrics(self) -> dict:
        """The per-layer metrics of BENCHMARK.json that the spans determine."""
        agg = self.by_name()
        zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

        def get(name, key):
            return agg.get(name, zero)[key]

        def total(names, key):
            return sum(get(n, key) for n in names)

        def amount_sum(name):
            return sum(v for i, v in self.amounts.items() if self.names[i] == name)

        def spans(name):
            return [i for i, n in enumerate(self.names) if n == name]

        fft = ("grid.fftn", "grid.ifftn")
        step = "varcoef.theta_step"
        steps = get(step, "calls")
        step_ms = [1e3 * (self.ends[i] - self.starts[i]) for i in spans(step)]
        matvecs = sum(1 for i in spans("operators.lame_apply") if self._parent_name(i) == step)
        step_ffts = sum(1 for n in fft for i in spans(n) if self._has_ancestor(i, step))
        norms = spans("besov.besov_norm_report")
        p2 = [i for i in norms if self.amounts.get(i) == 2.0]
        pq = [i for i in norms if self.amounts.get(i) != 2.0]
        heat_calls = get("besov.heat_char_norm_report", "calls")
        lag = "lagrangian."
        return {
            "grid.fft.calls": total(fft, "calls"),
            "grid.fft.self_s": total(fft, "self_s"),
            "grid.fft.points": sum(amount_sum(n) for n in fft),
            "grid.derivative.calls": get("grid.spectral_derivative", "calls"),
            "grid.jacobian.s": get("grid.jacobian", "s"),
            "operators.lame_apply.calls": get("operators.lame_apply", "calls"),
            "operators.lame_apply.self_s": get("operators.lame_apply", "self_s"),
            "operators.semigroup_weighted.calls": get("operators.semigroup_weighted", "calls"),
            "operators.semigroup_weighted.self_s": get("operators.semigroup_weighted", "self_s"),
            "operators.const_semigroup.s": get("operators.const_semigroup", "s"),
            "varcoef.theta_step.calls": steps,
            "varcoef.theta_step.s": get(step, "s"),
            "varcoef.theta_step.self_s": get(step, "self_s"),
            "varcoef.theta_step.p50_ms": float(np.percentile(step_ms, 50)) if steps else 0.0,
            "varcoef.theta_step.p90_ms": float(np.percentile(step_ms, 90)) if steps else 0.0,
            "varcoef.evolve.calls": get("varcoef.evolve", "calls"),
            "varcoef.evolve.s": get("varcoef.evolve", "s"),
            "varcoef.matvecs": matvecs,
            "varcoef.matvecs_per_step": matvecs / steps if steps else 0.0,
            "varcoef.fft_per_step": step_ffts / steps if steps else 0.0,
            "varcoef.solver_failures": self.raised[(step, "SolverConvergenceError")],
            "besov.norm_p2.calls": len(p2),
            "besov.norm_p2.s": sum((self.ends[i] - self.starts[i] for i in p2), 0.0),
            "besov.norm_pq.calls": len(pq),
            "besov.norm_pq.s": sum((self.ends[i] - self.starts[i] for i in pq), 0.0),
            "besov.heat_char.calls": heat_calls,
            "besov.heat_char.s": get("besov.heat_char_norm_report", "s"),
            "besov.heat_char.self_s": get("besov.heat_char_norm_report", "self_s"),
            "besov.heat_char.nodes_per_call": (
                amount_sum("besov.heat_char_norm_report") / heat_calls if heat_calls else 0.0
            ),
            "fields.random_band_field.calls": get("fields.random_band_field", "calls"),
            "fields.random_band_field.s": get("fields.random_band_field", "s"),
            "maxreg.solve_linear_maxreg.s": get("maxreg.solve_linear_maxreg", "s"),
            "maxreg.norm_equiv_ratio.s": get("maxreg.norm_equiv_ratio", "s"),
            "maxreg.solution_norms.s": get("maxreg.solution_norms", "s"),
            "lagrangian.picard_solve.s": get(lag + "picard_solve", "s"),
            "lagrangian.picard.iterations": amount_sum(lag + "picard_solve"),
            "lagrangian.flow_map.s": get(lag + "flow_map", "s"),
            "lagrangian.nonlinearity_f.s": get(lag + "nonlinearity_f", "s"),
            "lagrangian.pushforward_eulerian.s": get(lag + "pushforward_eulerian", "s"),
            "lagrangian.scheme_residual.s": get(lag + "scheme_residual", "s"),
            "lagrangian.eulerian_reference_solve.s": get(lag + "eulerian_reference_solve", "s"),
            "lagrangian.invert_flow.calls": get(lag + "invert_flow", "calls"),
            "lagrangian.invert_flow.s": get(lag + "invert_flow", "s"),
            "interp.calls": get("_interp.interp_periodic", "calls"),
            "interp.points": amount_sum("_interp.interp_periodic"),
            "interp.self_s": get("_interp.interp_periodic", "self_s"),
            "interp.prefilter.s": get("_interp.spline_prefilter", "s"),
            "kernels.kernel_column.s": get("kernels.kernel_column", "s"),
            "kernels.fit.s": total(("kernels.gaussian_fit", "kernels.gradient_envelope"), "s"),
            "kernels.conservation_defect.s": get("kernels.conservation_defect", "s"),
            "io.write.s": total([n for n in agg if n.startswith("io.write_")], "s"),
            "scenarios.build.s": total([n for n in agg if n.startswith("scenarios.build_")], "s"),
        }

    def _parent_name(self, i: int):
        p = self.parents[i]
        return self.names[p] if p >= 0 else None

    def _has_ancestor(self, i: int, name: str) -> bool:
        p = self.parents[i]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False


def traced_cli(argv: list) -> tuple:
    """Run ``lamelab.cli.main(argv)`` under a fresh tracer; returns (exit code, tracer)."""
    tracer = Tracer()
    with tracer:
        cli = importlib.import_module("lamelab.cli")
        code = cli.main(argv)
    return code, tracer


def main() -> int:
    report_path, argv = sys.argv[1], sys.argv[2:]
    code, tracer = traced_cli(argv)
    report = {
        "exit_code": code,
        "metrics": tracer.layer_metrics(),
        "functions": tracer.by_name(),
    }
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
