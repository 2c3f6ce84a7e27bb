#!/usr/bin/env python3
"""Run the benchmark over many seeds, twice, and report each metric's spread.

    python3 perfbench/spread.py --runs 10 --out perfbench/baseline.json

This runs two sets, one after the other. A set runs the benchmark command
once per seed 1..runs and workload of BENCHMARK.json, with the file's
run_seconds and --trace 0, round-robin: every workload at seed 1, then every
workload at seed 2, and so on, so each workload's runs spread over the whole
set. For every set, workload and end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median next
to the metric's bound; a spread above a third of the bound is flagged, and
one above the bound is flagged louder. It then prints how far the second
set's median moved from the first's in the metric's worse direction, flagged
when that is more than the bound. The exit code is 0 only when every run is
correct and nothing is flagged. --out writes every run's values with the
summaries, as a baseline to compare a later commit against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(spec: dict, workload: str, seed: int) -> dict:
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}: {out.stderr.strip()}")
    result = json.loads(lines[-1])
    result["environment"] = next((json.loads(line.split(": ", 1)[1]) for line in lines
                                  if line.startswith("environment: ")), None)
    result["summary"] = next((line for line in lines if line.startswith(workload + ": ")), None)
    return result


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def run_set(spec: dict, names: list, seeds: list, label: str) -> dict:
    runs = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            result = run_once(spec, name, seed)
            runs[name].append({"seed": seed, **result})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{label} {name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
    return runs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, args.runs + 1))
    sets = [run_set(spec, names, seeds, f"set {i + 1}") for i in range(2)]

    steady = all(r["correct"] for runs in sets for name in names for r in runs[name])
    summaries = []
    print(f"\n{'set':4} {'workload':10} {'metric':12} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>8} {'bound':>6}")
    for i, runs in enumerate(sets):
        summary = {}
        for name in names:
            summary[name] = {}
            for metric in spec["end_to_end"]:
                s = spread([r["metrics"][metric["name"]]["value"] for r in runs[name]])
                summary[name][metric["name"]] = s
                flag = ("  <- above bound" if s["spread"] > metric["bound"]
                        else "  <- above bound/3" if s["spread"] > metric["bound"] / 3.0 else "")
                steady = steady and not flag
                print(f"{i + 1:<4} {name:10} {metric['name']:12} {s['median']:10.4f} {s['q1']:10.4f} "
                      f"{s['q3']:10.4f} {s['spread']:8.4f} {metric['bound']:6.2f}{flag}")
        summaries.append(summary)

    shift = {}
    print(f"\n{'workload':10} {'metric':12} {'median 1':>10} {'median 2':>10} {'worse by':>9} {'bound':>6}")
    for name in names:
        shift[name] = {}
        for metric in spec["end_to_end"]:
            first, second = (summary[name][metric["name"]]["median"] for summary in summaries)
            worse = (second / first - 1.0) * (1.0 if metric["better"] == "lower" else -1.0)
            shift[name][metric["name"]] = worse
            flag = "  <- above bound" if worse > metric["bound"] else ""
            steady = steady and not flag
            print(f"{name:10} {metric['name']:12} {first:10.4f} {second:10.4f} {worse:9.4f} "
                  f"{metric['bound']:6.2f}{flag}")

    if args.out:
        report = {"seeds": seeds, "order": "round-robin over workloads within each seed",
                  "sets": [{"summary": summary, "runs": runs} for summary, runs in zip(summaries, sets)],
                  "worse_by": shift}
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
