"""Noise calibration: repeat the benchmark and record medians, spreads and bounds.

    python3 bench/calibrate.py            # writes bench/results/reference.json
    python3 bench/calibrate.py --trace    # writes bench/results/trace.json

The first form runs ``run.py --workload W --seed S --seconds RUN_SECONDS``
``RUNS`` times per workload, each run with another seed, exactly as
BENCHMARK.json describes the runs. Per workload and end-to-end metric it
records the values, the median, the spread (interquartile range over
median, from ``statistics.quantiles(n=4)``), the bound, and whether the
median of the second half of the runs lies within the bound of the
first half's. Next to the normalized ``wall_s`` and ``setup_s`` it
records the raw host seconds they came from (``raw_wall_s``,
``raw_setup_s``) and each run's elapsed time. It derives every bound
from the spreads it measured (:func:`derive_bounds`) and ends with one
default run (untraced, all workloads) to record its elapsed time
against the cap, with the raw and the normalized seconds of its
passes (their ratio is how slow the host was). The second form runs
the traced benchmark once over every workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, END_TO_END, OUT_DIR, ROOT, RUN_SECONDS, UNTRACED_CAP_S, WORKLOADS

RESULTS = Path(__file__).resolve().parent / "results"
RUN = Path(__file__).resolve().parent / "run.py"
RUNS = 10
#: Bound of each end-to-end metric before any calibration.
STARTING_BOUNDS = {"work_per_s": 0.10, "wall_s": 0.10, "setup_s": 0.15, "peak_rss_mb": 0.10}
#: No bound may exceed this share of the parent's median.
BOUND_CAP = 0.25


def _run(args: list) -> tuple[dict, dict]:
    """One run.py invocation; returns (result line, report.json)."""
    proc = subprocess.run([sys.executable, str(RUN), *args], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"run.py {' '.join(args)} failed ({proc.returncode}):\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return line, json.loads((OUT_DIR / "report.json").read_text())


def spread(values: list) -> float:
    """Interquartile range over median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def summarize(values: list) -> dict:
    half = len(values) // 2
    return {
        "values": values,
        "median": statistics.median(values),
        "spread": spread(values),
        "median_a": statistics.median(values[:half]),
        "median_b": statistics.median(values[half:]),
    }


def derive_bounds(workloads: dict) -> dict:
    """Each bound is the larger of its starting bound and 3x the widest
    spread on any workload (rounded up to 0.01), at most ``BOUND_CAP``;
    ``setup_s`` then gets the largest bound."""
    bounds = {}
    for metric, start in STARTING_BOUNDS.items():
        widest_on = max(workloads, key=lambda w: workloads[w][metric]["spread"])
        widest = workloads[widest_on][metric]["spread"]
        bound = min(BOUND_CAP, max(start, math.ceil(round(300 * widest, 6)) / 100))
        bounds[metric] = {"start": start, "widest_spread": widest, "widest_on": widest_on,
                          "bound": bound}
    bounds["setup_s"]["bound"] = max(b["bound"] for b in bounds.values())
    for b in bounds.values():
        b["widened"] = b["bound"] > b["start"]
    return bounds


def calibrate() -> dict:
    seeds = [DEFAULT_SEED + 1000 * k for k in range(RUNS)]
    workloads = {}
    for name in WORKLOADS:
        runs = []
        for seed in seeds:
            line, report = _run(["--workload", name, "--seed", str(seed),
                                 "--seconds", str(RUN_SECONDS)])
            section = report["workloads"][name]
            runs.append({
                **{metric: line["metrics"][metric]["value"] for metric, *_ in END_TO_END},
                "raw_wall_s": statistics.median(section["raw_pass_s"]),
                "raw_setup_s": statistics.median(section["raw_setup_s"]),
                "elapsed_s": report["elapsed_s"],
                "failed": line["failed"],
            })
            print(f"{name} seed {seed}: {runs[-1]}", file=sys.stderr, flush=True)
        doc = {key: summarize([r[key] for r in runs])
               for key in [m for m, *_ in END_TO_END] + ["raw_wall_s", "raw_setup_s", "elapsed_s"]}
        doc["failed"] = sum(r["failed"] for r in runs)
        workloads[name] = doc
    bounds = derive_bounds(workloads)
    for doc in workloads.values():
        for metric, b in bounds.items():
            m = doc[metric]
            m["bound"] = b["bound"]
            m["spread_within_third_of_bound"] = m["spread"] < b["bound"] / 3
            m["b_within_bound_of_a"] = abs(m["median_b"] - m["median_a"]) <= b["bound"] * m["median_a"]
    _, report = _run([])
    sections = report["workloads"].values()
    return {
        "schema": "bench.reference/v2",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "run_seconds": RUN_SECONDS,
        "seeds": seeds,
        "bounds": bounds,
        "untraced_run": {"elapsed_s": report["elapsed_s"], "cap_s": UNTRACED_CAP_S,
                         "over_cap": report["over_untraced_cap"],
                         "raw_pass_s": sum(sum(s["raw_pass_s"]) for s in sections),
                         "pass_s": sum(sum(s["pass_s"]) for s in sections)},
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/calibrate.py")
    parser.add_argument("--trace", action="store_true",
                        help="run the traced benchmark once and write results/trace.json")
    args = parser.parse_args(argv)
    if args.trace:
        _, doc = _run(["--trace"])
        path = RESULTS / "trace.json"
    else:
        doc = calibrate()
        path = RESULTS / "reference.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
