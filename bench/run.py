"""Host-speed benchmark of the simulator: one command, seven workloads.

    python3 bench/run.py                          # all workloads, untraced
    python3 bench/run.py --workload fig4-bulk --seed 4321 --seconds 8
    python3 bench/run.py --trace                  # per-layer metrics
    python3 bench/run.py --describe               # the BENCHMARK.json document

Each workload runs in its own fresh child process, one child at a time:
a throwaway child first warms the disk cache, then set-up children
measure interpreter start, imports and one tiny warm-up item, and the
measuring child runs timed passes of fixed work. Every metric is
printed as ``workload metric value unit``; every item's simulated
output is checked against ``golden.json`` and structurally; a JSON
report goes to ``--out``. The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics, or with ``--trace`` the per-layer ones. The exit code is 0
only if no item failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import golden
from hostspeed import normalize, probe
from workloads import (
    DEFAULT_SEED,
    END_TO_END,
    MIN_PASSES,
    OUT_DIR,
    ROOT,
    SETUP_SAMPLES,
    SRC,
    UNTRACED_CAP_S,
    WORKLOADS,
    describe,
    per_layer_metrics,
)

CHILD = Path(__file__).resolve().parent / "child.py"
#: A child still running after this long is killed and the run fails.
CHILD_TIMEOUT_S = 150.0
#: Failed items listed per workload in the report.
_MAX_LISTED = 10

UNITS = {name: unit for name, unit, _b, _bound in END_TO_END}
UNITS.update({name: unit for name, unit, _b in per_layer_metrics()})
UNITS.update(fail_frac="ratio", paper_err_pct="%", paper_err_pp="percentage points")


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed item)."""


def _child_env() -> dict:
    env = dict(os.environ)
    # The fast paths are part of what is measured; one BLAS thread keeps
    # the children single-threaded on a 2-core host.
    env.pop("REPRO_SLOW_PATH", None)
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def spawn(args: list) -> tuple:
    """Run one child to completion; returns (seconds to ready or None
    if it never signalled ready, messages)."""
    cmd = [sys.executable, str(CHILD), *args]
    start = perf_counter()
    ready_s = None
    messages = []
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                          env=_child_env(), cwd=ROOT, text=True) as proc:
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                message = json.loads(line)
                if ready_s is None and message.get("ready"):
                    ready_s = perf_counter() - start
                messages.append(message)
            code = proc.wait()
        except BaseException:
            proc.kill()
            raise
        finally:
            watchdog.cancel()
    if code != 0:
        raise BenchError(f"child {' '.join(args)} exited with code {code}")
    return ready_s, messages


def _paper_error(kind, refs) -> dict:
    if not kind or not refs:
        return {}
    if kind == "pct":
        return {"paper_err_pct": statistics.fmean(abs(s - p) / abs(p) for s, p in refs) * 100}
    return {"paper_err_pp": statistics.fmean(abs(s - p) for s, p in refs)}


def run_workload(name: str, args, gold: dict) -> dict:
    """All children of one workload; returns its report section."""
    workload = WORKLOADS[name]
    common = ["--workload", name, "--seed", str(args.seed), "--out", str(args.out)]
    if args.tiny:
        common.append("--tiny")
    raw_setups, setups = [], []
    if args.trace:
        _, messages = spawn(["--mode", "trace", *common])
    else:
        for _ in range(SETUP_SAMPLES - 1):
            before = probe()
            ready_s, _ = spawn(["--mode", "setup", *common])
            raw_setups.append(ready_s)
            setups.append(normalize(ready_s, before, probe()))
        before = probe()
        ready_s, messages = spawn(["--mode", "run", "--seconds", str(args.seconds),
                                   "--min-passes", str(MIN_PASSES), *common])
        # The measuring child probes right after signalling ready.
        after = next(m["probe_s"] for m in messages if "probe_s" in m)
        raw_setups.append(ready_s)
        setups.append(normalize(ready_s, before, after))
    passes = [m for m in messages if "pass" in m]
    checked = golden.digest_checked(workload, args.seed, gold)
    want = golden.expected(gold, name, args.tiny)
    attempted, failures = 0, []
    for p in passes:
        for item in p["items"]:
            attempted += 1
            errors = list(item["errors"])
            if checked and not errors and item["digest"] != want.get(item["id"]):
                errors.append(f"digest {item['digest']} != golden {want.get(item['id'])}")
            if errors:
                failures.append({"pass": p["pass"], "id": item["id"], "errors": errors})

    untraced = [p for p in passes if not p["traced"]]
    work = sum(item["work"] for item in passes[0]["items"])
    section = {
        "unit": workload.unit,
        "work_per_pass": work,
        "digest_checked": checked,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:_MAX_LISTED],
        "raw_pass_s": [p["wall_s"] for p in untraced],
        "extra": {"fail_frac": len(failures) / attempted,
                  **_paper_error(workload.accuracy, [r for i in passes[0]["items"]
                                                     for r in i["refs"]])},
    }
    if args.trace:
        traced = next(p for p in passes if p["traced"])
        section.update(traced_pass_s=traced["wall_s"], spans=traced["spans"],
                       spans_dropped=traced["spans_dropped"], metrics=traced["layers"],
                       inclusive_s=traced["inclusive_s"], shim_cost_us=traced["shim_cost_us"])
        return section
    walls = [p["norm_s"] for p in untraced]
    wall = statistics.median(walls)
    section.update(pass_s=walls, samples=len(walls), raw_setup_s=raw_setups, setup_s=setups)
    section["metrics"] = {
        "work_per_s": work / wall,
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": untraced[MIN_PASSES - 1]["rss_mb"],
    }
    return section


def _result_line(sections: dict) -> dict:
    metrics = {}
    single = len(sections) == 1
    for name, section in sections.items():
        for metric, value in section["metrics"].items():
            key = metric if single else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": UNITS[metric]}
    failed = sum(s["failed"] for s in sections.values())
    return {
        "correct": failed == 0,
        "attempted": sum(s["attempted"] for s in sections.values()),
        "failed": failed,
        "metrics": metrics,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", dest="workloads", action="append", choices=list(WORKLOADS),
                        metavar="NAME", help="run this workload (repeatable; default: all)")
    parser.add_argument("--workloads", dest="workloads", action="extend", nargs="+",
                        choices=list(WORKLOADS), metavar="NAME", help="run these workloads")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"seed of the serve races and fuzz runs (default: {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help=f"after {MIN_PASSES} passes, go on while the next pass should end "
                        f"within this many seconds (default 0: exactly {MIN_PASSES} passes)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="one untraced and one traced pass; report per-layer metrics")
    parser.add_argument("--out", type=Path, default=OUT_DIR,
                        help="directory for report.json and span traces (default: bench/out)")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (checked against the tiny golden digests)")
    parser.add_argument("--describe", action="store_true",
                        help="print the BENCHMARK.json document and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.describe:
        print(json.dumps(describe(), indent=2))
        return 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    try:
        gold = golden.load()
    except (OSError, ValueError) as exc:
        print(f"error: golden digests: {exc}", file=sys.stderr)
        return 2
    names = list(dict.fromkeys(args.workloads or WORKLOADS))
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)
    start = perf_counter()
    try:
        spawn(["--mode", "warm"])
        sections = {name: run_workload(name, args, gold) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed = perf_counter() - start
    # The cap applies to the default run: untraced, full size, every workload, 3 passes.
    capped = not (args.trace or args.tiny or args.seconds) and len(names) == len(WORKLOADS)
    over_cap = capped and elapsed > UNTRACED_CAP_S
    if over_cap:
        print(f"warning: the untraced run took {elapsed:.1f} s, over its {UNTRACED_CAP_S} s cap",
              file=sys.stderr)

    for name, section in sections.items():
        for metric, value in {**section["metrics"], **section["extra"]}.items():
            print(f"{name} {metric} {value:.6g} {UNITS[metric]}")
        for failure in section["failures"]:
            print(f"{name} FAILED pass {failure['pass']} {failure['id']}: "
                  f"{failure['errors'][0].strip().splitlines()[-1]}", file=sys.stderr)
    report = {
        "schema": "bench.report/v1",
        "seed": args.seed,
        "trace": bool(args.trace),
        "tiny": args.tiny,
        "seconds": args.seconds,
        "elapsed_s": elapsed,
        "untraced_cap_s": UNTRACED_CAP_S,
        "over_untraced_cap": over_cap,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "workloads": sections,
    }
    (args.out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    line = _result_line(sections)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
