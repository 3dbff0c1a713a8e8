"""The benchmark's registry: workloads, metrics, bounds and run shape.

``BENCHMARK.json`` at the repository root is :func:`describe` printed by
``python bench/run.py --describe``; a test keeps the two equal.

Every workload is a list of *items*, each a call into a public entry
point of the ``repro`` package. Items return simulated output, which
:mod:`golden` hashes and checks; the benchmark times them on the host.
Importing this module does not import ``repro``: the item builders
import it when the child process calls them.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

from layers import BOUNDARIES, COUNTS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Default ``--out``: reports, span traces and the CLI items' scratch files.
OUT_DIR = ROOT / "bench" / "out"

DEFAULT_SEED = 1234
#: ``--seconds`` of the runs BENCHMARK.json describes.
RUN_SECONDS = 8
#: Timed passes every untraced run makes at least; ``peak_rss_mb`` is
#: read after exactly this many, so it does not depend on ``--seconds``.
MIN_PASSES = 3
#: Set-up samples per workload run (set-up-only children plus the
#: measuring child); ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: The whole untraced run of all workloads must fit in this (2-core host).
UNTRACED_CAP_S = 90

#: (name, unit, better, bound). ``bound`` is the share of the parent's
#: median by which the metric may worsen, as ``calibrate.py`` derives it
#: from the spreads in bench/results/reference.json (a test keeps the
#: two equal).
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("work_per_s", "1/s", "higher", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name, _module, _attr, engaged, _ in BOUNDARIES:
        out.append((f"{name}.calls", "count", "lower"))
        if engaged:
            out.append((f"{name}.engaged_frac", "ratio", "higher"))
        out.append((f"{name}.self_s", "s", "lower"))
    out += [(name, "count", "lower") for name, _ in COUNTS]
    out += [
        ("apps.servops.turbo_request_frac", "ratio", "higher"),
        ("unattributed_s", "s", "lower"),
        ("trace_shim_s", "s", "lower"),
        ("trace_overhead_pct", "%", "lower"),
    ]
    return out


class Checked(NamedTuple):
    """What one item's output yields once checked."""

    payload: str  #: canonical simulated output (hashed into the golden digest)
    errors: list  #: structural check failures
    refs: list  #: (simulated, paper) pairs for the accuracy metric


@dataclass(frozen=True)
class Item:
    id: str
    run: Callable[[], Any]
    check: Callable[[Any], Checked]
    work: int  #: workload units this item completes


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str  #: what one unit of ``work_per_s`` is
    why: str  #: one line, ≤ 200 characters (BENCHMARK.json)
    seeded: bool  #: inputs depend on ``--seed``
    accuracy: Optional[str]  #: "pct" / "pp" paper error, or None (no reference)
    build: Callable[[int, bool, str], list]  #: (seed, tiny, scratch dir) -> items


def canonical(obj: Any) -> str:
    """Key-sorted compact JSON; floats keep every digit (``repr``)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _finite_errors(values, what: str) -> list:
    bad = [v for v in values if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0)]
    return [f"{what}: non-positive or non-finite values {bad[:3]}"] if bad else []


def _anchors() -> dict:
    from repro.experiments.calibration import derive_anchors

    return {a.name: a.paper for a in derive_anchors()}


# ------------------------------------------------------------ fig4-bulk ----
_FIG4_ANCHORS = {
    "memcpy": "memcpy between nodes",
    "migrate_pages": "migrate_pages asymptotic throughput",
    "move_pages": "move_pages asymptotic throughput",
}


def _check_fig4(result) -> Checked:
    doc = result.to_dict()
    errors = []
    for name, values in doc["series"].items():
        errors += _finite_errors(values, name)
    paper = _anchors()
    refs = [(doc["series"][s][-1], paper[a]) for s, a in _FIG4_ANCHORS.items()]
    return Checked(canonical(doc), errors, refs)


def _fig4_bulk(seed: int, tiny: bool, scratch: str) -> list:
    from repro.experiments import fig4_throughput

    pages = 64 if tiny else 262144
    run = partial(fig4_throughput.run, [pages])
    return [Item(f"fig4.run[{pages}]#{i}", run, _check_fig4, 4 * pages) for i in range(2)]


# --------------------------------------------------------- nexttouch-mt ----
def _check_fig5(result) -> Checked:
    doc = result.to_dict()
    errors = []
    for name, values in doc["series"].items():
        errors += _finite_errors(values, name)
    refs = [(doc["series"]["Kernel Next-touch"][-1], _anchors()["kernel next-touch throughput"])]
    return Checked(canonical(doc), errors, refs)


def _check_fig7(pages: int, nthreads: int, strategy: str, elapsed_us: float) -> Checked:
    from repro.util.units import PAGE_SIZE, mb_per_s

    refs = []
    if nthreads == 4 and strategy == "lazy":
        ceiling = _anchors()["threaded lazy migration ceiling"]
        refs.append((mb_per_s(pages * PAGE_SIZE, elapsed_us), ceiling))
    return Checked(repr(elapsed_us), _finite_errors([elapsed_us], "elapsed_us"), refs)


def _nexttouch_mt(seed: int, tiny: bool, scratch: str) -> list:
    from repro.experiments import fig5_nexttouch, fig7_scalability

    pages = 64 if tiny else 8192
    items = [Item(f"fig5.run[{pages}]", partial(fig5_nexttouch.run, [pages]), _check_fig5,
                  3 * pages)]
    for k in (1, 2, 4):
        for strategy in ("sync", "lazy"):
            items.append(
                Item(
                    f"fig7.measure_parallel_migration[{pages},{k},{strategy}]",
                    partial(fig7_scalability.measure_parallel_migration, pages, k, strategy),
                    partial(_check_fig7, pages, k, strategy),
                    pages,
                )
            )
    return items


# ------------------------------------------------------------ lu-table1 ----
def _check_table1(result) -> Checked:
    from repro.experiments.table1_lu import PAPER_IMPROVEMENTS

    doc = result.to_dict()
    series = doc["series"]
    errors = _finite_errors(series["static (s)"] + series["next-touch (s)"], "LU seconds")
    refs = []
    for x, got in zip(doc["xs"], series["improvement %"]):
        dims, block = x.split("/")
        key = (int(dims.split("x")[0]), int(block))
        if key in PAPER_IMPROVEMENTS:
            refs.append((got, PAPER_IMPROVEMENTS[key]))
    return Checked(canonical(doc), errors, refs)


def _lu_table1(seed: int, tiny: bool, scratch: str) -> list:
    from repro.experiments import table1_lu

    configs = [(512, 128)] if tiny else [(4096, 128), (4096, 256), (8192, 512)]
    return [
        Item(f"table1.run[{n}/{b}]", partial(table1_lu.run, [(n, b)]), _check_table1, 2)
        for n, b in configs
    ]


# --------------------------------------------------------- observed-cli ----
_MANIFEST_SCHEMA = "repro.run_manifest/v1"


def _run_cli(argv: list, scratch: str):
    """One CLI call writing its ``--json`` artifacts to a fresh directory."""
    from repro.experiments import cli

    out = tempfile.mkdtemp(prefix="cli-", dir=scratch)
    return cli.main(argv[:1] + ["--json", out] + argv[1:]), out


def _check_cli(experiment: str, outcome) -> Checked:
    """Exit code, parseable artifacts, manifest schema, zero ``--check``
    violations. Only the ``<id>.json`` result files are hashed: the
    manifest legitimately carries host time, argv and trace health."""
    code, out = outcome
    errors = [] if code == 0 else [f"exit code {code}"]
    results = {}
    try:
        names = sorted(os.listdir(out))
        for name in names:
            with open(os.path.join(out, name)) as fh:
                doc = json.load(fh)
            if name.endswith(".manifest.json"):
                if doc.get("schema") != _MANIFEST_SCHEMA:
                    errors.append(f"{name}: schema {doc.get('schema')!r}")
                violations = doc.get("invariants", {}).get("violations", [])
                if violations:
                    errors.append(f"{name}: {len(violations)} invariant violation(s)")
            elif not name.endswith(".metrics.json"):
                results[name] = doc
        for required in (f"{experiment}.manifest.json", f"{experiment}.metrics.json"):
            if required not in names:
                errors.append(f"missing {required}")
        if not results:
            errors.append("no result files")
    except (OSError, ValueError) as exc:
        errors.append(f"unreadable artifacts: {exc!r}")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return Checked(canonical(results), errors, [])


def _observed_cli(seed: int, tiny: bool, scratch: str) -> list:
    if tiny:
        commands = [["serve", "--requests", "20", "--policies", "static", "--check"]]
    else:
        commands = [["fig4", "--check"], ["fig6"]]
    return [
        Item(
            "cli " + " ".join(argv[:1] + ["--json", "DIR"] + argv[1:]),
            partial(_run_cli, argv, scratch),
            partial(_check_cli, argv[0]),
            1,
        )
        for argv in commands
    ]


# ---------------------------------------------------------------- serve ----
#: fig_serve.race's default mix: 3 tenants x 2 client streams.
_STREAMS = 3 * 2


def _check_serve(issued: int, stats) -> Checked:
    errors = [] if stats.requests == issued else [f"served {stats.requests} of {issued}"]
    return Checked(canonical(stats.to_dict()), errors, [])


def _serve_items(policies, requests: int, seed: int) -> list:
    from repro.experiments import fig_serve

    issued = _STREAMS * requests
    return [
        Item(
            f"serve.race[{policy},{requests}]",
            partial(fig_serve.race, policy, requests=requests, seed=seed),
            partial(_check_serve, issued),
            issued,
        )
        for policy in policies
    ]


def _serve_batch(seed: int, tiny: bool, scratch: str) -> list:
    return _serve_items(("static", "move_pages", "nexttouch"), 200 if tiny else 10000, seed)


def _serve_perreq(seed: int, tiny: bool, scratch: str) -> list:
    return _serve_items(("autonuma", "replicate"), 100 if tiny else 2000, seed)


# ----------------------------------------------------------- fuzz-mixed ----
_FUZZ_OPS = 50


def _fuzz_one(seed: int):
    from repro.check import generate_ops, run_ops

    ops = generate_ops(seed, _FUZZ_OPS)
    return ops, run_ops(ops)


def _check_fuzz(outcome) -> Checked:
    ops, failure = outcome
    errors = [] if failure is None else [f"oracle: {canonical(failure.to_json())}"]
    return Checked(canonical({"ops": ops, "passed": failure is None}), errors, [])


def _fuzz_mixed(seed: int, tiny: bool, scratch: str) -> list:
    return [
        Item(f"fuzz.run_ops[seed+{i}]", partial(_fuzz_one, seed + i), _check_fuzz, _FUZZ_OPS)
        for i in range(1, (10 if tiny else 60) + 1)
    ]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fig4-bulk", "pages moved or copied",
            "1 GiB single-thread fig4 sweep: idle queue lets demand_zero_run/migrate_run commit "
            "whole page runs; exercises the run-op layer, bypasses the engine. Unit: pages",
            False, "pct", _fig4_bulk,
        ),
        Workload(
            "nexttouch-mt", "pages migrated",
            "Kernel next-touch (fig5) and 1-4 thread sync/lazy migration (fig7) at 32 MiB: "
            "busy queue, per-page nt_fault_batch; exercises engine and fault paths. Unit: pages",
            False, "pct", _nexttouch_mt,
        ),
        Workload(
            "lu-table1", "LU factorizations",
            "Table 1 LU rows 4096/128, 4096/256, 8192/512 with 16 OpenMP threads: the paper's "
            "application result; exercises blas, openmp and engine. Unit: factorizations",
            False, "pp", _lu_table1,
        ),
        Workload(
            "observed-cli", "CLI commands",
            "CLI fig4 --json --check and fig6 --json: observe() attaches a Tracer that turns "
            "every fast path off; same fig4 code as fig4-bulk, observed. Unit: commands",
            False, None, _observed_cli,
        ),
        Workload(
            "serve-batch", "requests served",
            "KV serve race, static/move_pages/nexttouch, 10000 requests per stream: request "
            "batching (servops lease) engages for ~96% of requests. Unit: requests",
            True, None, _serve_batch,
        ),
        Workload(
            "serve-perreq", "requests served",
            "KV serve race, autonuma/replicate, 2000 requests per stream: scanner and replica "
            "writes keep most requests on the per-request path. Unit: requests",
            True, None, _serve_perreq,
        ),
        Workload(
            "fuzz-mixed", "ops",
            "60 seeded 50-op differential fuzz runs: the only fork/COW, swap, mprotect and "
            "munmap mix, checked op by op against the oracle. Unit: ops",
            True, None, _fuzz_mixed,
        ),
    )
}


def describe() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer_metrics()],
    }
