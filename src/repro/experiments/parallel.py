"""Sharded sweep runner: fan sweep points across worker processes.

The fig4/fig5/fig7 sweeps and the serve policy race are embarrassingly
parallel — every point builds its own fresh system and never looks at
another point's state. This module makes that structure explicit: a
sweep is decomposed into an ordered list of *point specs*, each spec is
executed in a worker process (or inline when ``workers == 1``), and the
per-point results are reassembled **in serial point order** into the
same :class:`~repro.experiments.common.ExperimentResult` the serial
``run()`` would have produced.

Determinism contract (pinned by ``tests/test_parallel_runner.py``):

* every point derives its seed from ``(root_seed, point_index)`` via
  :func:`repro.sim.rng.point_seed` — never from the worker id — so the
  merged result is bit-identical for every worker count;
* merged manifests and metrics exclude anything host-dependent
  (wall time, argv, worker count); per-point metrics snapshots are
  merged with :func:`repro.obs.metrics.merge_snapshots` in point order.

``--workers N`` on the CLI routes the four sweep experiments through
:func:`run_sweep`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..util.units import PAGE_SIZE, mb_per_s
from .common import ExperimentResult, default_page_counts

__all__ = [
    "PARALLEL_EXPERIMENTS",
    "SWEEP_SCHEMA",
    "SweepOutcome",
    "resolve_workers",
    "run_sweep",
]

#: Experiments the CLI may shard with ``--workers``.
PARALLEL_EXPERIMENTS = ("fig4", "fig5", "fig7", "serve")

SWEEP_SCHEMA = "repro.sweep_manifest/v1"

#: Default threads raced by the fig7 points (mirrors ``fig7.run``).
_FIG7_THREADS = (1, 2, 3, 4)


@dataclass
class SweepOutcome:
    """A reassembled sweep: results plus optional merged observability."""

    experiment: str
    workers: int
    results: list = field(default_factory=list)
    #: merged metrics snapshot (``collect=True`` only)
    metrics: Optional[dict] = None
    #: merged sweep manifest (``collect=True`` only)
    manifest: Optional[dict] = None


def resolve_workers(value) -> int:
    """``'auto'`` -> host CPU count; otherwise a positive int."""
    if value is None:
        return 1
    if isinstance(value, str) and value.strip().lower() == "auto":
        return max(1, os.cpu_count() or 1)
    workers = int(value)
    if workers < 1:
        raise ValueError(f"--workers must be >= 1, got {workers}")
    return workers


# ------------------------------------------------------------ point fns ----
# One function per experiment, executed inside the worker process. Each
# returns plain JSON-able values; the measurement order inside a point
# matches the serial run() loop body exactly, so every float is
# bit-identical to the serial sweep.

def _point_fig4(payload: dict) -> dict:
    from . import fig4_throughput as f

    n = payload["pages"]
    nbytes = n * PAGE_SIZE
    return {
        "memcpy": mb_per_s(nbytes, f._measure_memcpy(n)),
        "migrate_pages": mb_per_s(nbytes, f._measure_migrate_pages(n)),
        "move_pages": mb_per_s(nbytes, f._measure_move_pages(n, True)),
        "move_pages (no patch)": mb_per_s(nbytes, f._measure_move_pages(n, False)),
    }


def _point_fig5(payload: dict) -> dict:
    from . import fig5_nexttouch as f

    n = payload["pages"]
    nbytes = n * PAGE_SIZE
    return {
        f.SERIES[0]: mb_per_s(nbytes, f.measure_user_nt(n, patched=False)),
        f.SERIES[1]: mb_per_s(nbytes, f.measure_user_nt(n, patched=True)),
        f.SERIES[2]: mb_per_s(nbytes, f.measure_kernel_nt(n)),
    }


def _point_fig7(payload: dict) -> dict:
    from . import fig7_scalability as f

    n = payload["pages"]
    nbytes = n * PAGE_SIZE
    values: dict[str, float] = {}
    for strategy in ("sync", "lazy"):
        for k in payload["threads"]:
            label = f"{strategy.capitalize()} - {k} Thread{'s' if k > 1 else ''}"
            values[label] = mb_per_s(
                nbytes, f.measure_parallel_migration(n, k, strategy)
            )
    return values


def _point_serve(payload: dict) -> dict:
    from . import fig_serve

    stats = fig_serve.race(
        payload["policy"],
        tenants=payload["tenants"],
        keys=payload["keys"],
        clients=payload["clients"],
        requests=payload["requests"],
        theta=payload["theta"],
        slo_us=payload["slo_us"],
        gated=payload["gated"],
        seed=payload["seed"],
    )
    return {
        "stats": stats.to_dict(),
        "cells": {
            "rps": round(stats.throughput_rps, 1),
            "p50": fig_serve._fmt(stats.p50_us),
            "p99": fig_serve._fmt(stats.p99_us),
            "moved": stats.pages_migrated,
            "breaches": stats.slo["breaches"],
        },
    }


_POINT_FNS = {
    "fig4": _point_fig4,
    "fig5": _point_fig5,
    "fig7": _point_fig7,
    "serve": _point_serve,
}


def _run_point(spec: dict) -> dict:
    """Execute one sweep point (the worker-side entry point)."""
    fn = _POINT_FNS[spec["experiment"]]
    if not spec["collect"]:
        return {"index": spec["index"], "values": fn(spec["payload"])}
    from ..obs import observe, run_manifest
    from ..obs.timeseries import TimeSeriesSampler, merge_series

    with observe() as obs:
        values = fn(spec["payload"])
    metrics = obs.merged_metrics() if obs.systems else {}
    manifest = (
        run_manifest(
            obs.systems,
            experiment=spec["experiment"],
            tracers=obs.tracers,
            seed=spec["payload"].get("seed"),
        )
        if obs.systems
        else None
    )
    # One end-of-point telemetry sample per observed system, merged in
    # system-creation order — everything sampled is simulated state, so
    # the series is independent of which worker ran the point.
    series = None
    if obs.systems:
        per_system = []
        for system in obs.systems:
            sampler = TimeSeriesSampler(system.kernel)
            sampler.sample()
            per_system.append(sampler.to_dict())
        series = merge_series(per_system)
    return {
        "index": spec["index"],
        "values": values,
        "metrics": metrics,
        "manifest": manifest,
        "series": series,
    }


def _execute(specs: list[dict], workers: int) -> list[dict]:
    """Run the specs, preserving point order in the returned list."""
    if workers <= 1 or len(specs) <= 1:
        return [_run_point(spec) for spec in specs]
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    with ctx.Pool(processes=min(workers, len(specs))) as pool:
        return pool.map(_run_point, specs)


# ------------------------------------------------------- decompositions ----

def _specs_pages(
    experiment: str,
    counts: Sequence[int],
    collect: bool,
    thread_counts: Sequence[int],
) -> list[dict]:
    specs = []
    for index, n in enumerate(counts):
        payload = {"pages": int(n)}
        if experiment == "fig7":
            payload["threads"] = tuple(thread_counts)
        specs.append(
            {
                "experiment": experiment,
                "index": index,
                "payload": payload,
                "collect": collect,
            }
        )
    return specs


def _assemble_fig4(counts, points) -> ExperimentResult:
    from .fig4_throughput import SERIES

    result = ExperimentResult(
        experiment_id="fig4",
        title="Figure 4: migration and memcpy throughput, node #0 -> #1 (MB/s)",
        x_label="pages",
        xs=list(counts),
        series={name: [] for name in SERIES},
    )
    for point in points:
        for name in SERIES:
            result.series[name].append(point["values"][name])
    result.notes.append(
        "paper targets: memcpy ~1800 MB/s, migrate_pages ~780 MB/s, "
        "move_pages ~600 MB/s flat, no-patch collapsing past ~1k pages"
    )
    return result


def _assemble_fig5(counts, points) -> ExperimentResult:
    from .fig5_nexttouch import SERIES

    result = ExperimentResult(
        experiment_id="fig5",
        title="Figure 5: next-touch migration throughput (MB/s)",
        x_label="pages",
        xs=list(counts),
        series={name: [] for name in SERIES},
    )
    for point in points:
        for name in SERIES:
            result.series[name].append(point["values"][name])
    result.notes.append(
        "paper targets: kernel NT ~800 MB/s from small sizes; user NT "
        "climbing to ~600 MB/s (move_pages-bound); no-patch collapsing"
    )
    return result


def _assemble_fig7(counts, points, thread_counts) -> ExperimentResult:
    series_names = [
        f"Sync - {k} Thread{'s' if k > 1 else ''}" for k in thread_counts
    ] + [f"Lazy - {k} Thread{'s' if k > 1 else ''}" for k in thread_counts]
    result = ExperimentResult(
        experiment_id="fig7",
        title="Figure 7: parallel sync vs lazy migration throughput (MB/s)",
        x_label="pages",
        xs=list(counts),
        series={name: [] for name in series_names},
    )
    for point in points:
        for name in series_names:
            result.series[name].append(point["values"][name])
    result.notes.append(
        "paper targets: flat below ~1 MiB; sync +50-60% at 4 threads; "
        "lazy slightly better, peaking ~1.3 GB/s"
    )
    return result


def _specs_serve(opts: dict, collect: bool, seed) -> tuple[list[dict], dict]:
    from ..sim.rng import point_seed
    from .fig_serve import FULL_THETAS, POLICIES

    chosen = tuple(opts.get("policies") or POLICIES)
    thetas = FULL_THETAS if opts.get("full") else (0.9,)
    base = {
        "tenants": opts.get("tenants", 3),
        "keys": opts.get("keys", 128),
        "clients": opts.get("clients", 2),
        "requests": opts.get("requests", 800),
        "slo_us": opts.get("slo_us"),
        "gated": opts.get("gated", True),
    }
    if base["slo_us"] is None:
        from ..apps.kvserver import DEFAULT_SLO_US

        base["slo_us"] = DEFAULT_SLO_US
    specs = []
    index = 0
    for theta in thetas:
        for policy in chosen:
            payload = dict(base)
            payload["theta"] = theta
            payload["policy"] = policy
            payload["seed"] = None if seed is None else point_seed(seed, index)
            specs.append(
                {
                    "experiment": "serve",
                    "index": index,
                    "payload": payload,
                    "collect": collect,
                }
            )
            index += 1
    return specs, {"chosen": chosen, "thetas": thetas, **base}


def _assemble_serve(meta: dict, points) -> "ExperimentResult":
    from .fig_serve import ServeResult

    chosen, thetas = meta["chosen"], meta["thetas"]
    result = ServeResult(
        experiment_id="serve",
        title=(
            f"KV serving: {meta['tenants']} tenants x {meta['clients']} clients, "
            f"SLO p99 <= {meta['slo_us']:g} us"
        ),
        x_label="policy",
        xs=list(chosen),
    )
    result.slo_us = meta["slo_us"]
    it = iter(points)
    for theta in thetas:
        suffix = f" [theta={theta:g}]" if len(thetas) > 1 else ""
        columns = {
            f"req/s{suffix}": [],
            f"p50 us{suffix}": [],
            f"p99 us{suffix}": [],
            f"pages moved{suffix}": [],
            f"SLO breaches{suffix}": [],
        }
        for policy in chosen:
            point = next(it)["values"]
            label = f"{policy}@{theta:g}" if len(thetas) > 1 else policy
            result.stats[label] = point["stats"]
            cols = list(columns)
            cells = point["cells"]
            columns[cols[0]].append(cells["rps"])
            columns[cols[1]].append(cells["p50"])
            columns[cols[2]].append(cells["p99"])
            columns[cols[3]].append(cells["moved"])
            columns[cols[4]].append(cells["breaches"])
        result.series.update(columns)
    result.notes.append(
        "every tenant loads on its home node and serves from the next "
        "one over — all traffic starts remote; gated drivers act only "
        "while the tenant's rolling p99 exceeds the SLO"
    )
    return result


# ------------------------------------------------------------- merging ----

def _sweep_manifest(experiment: str, points: list[dict]) -> dict:
    """One manifest for the whole sweep, merged in point order.

    Excludes wall time, argv and the worker count on purpose: the same
    sweep must serialize byte-identically for every ``--workers`` value.
    """
    from .. import __version__
    from ..obs.manifest import git_revision
    from ..obs.metrics import merge_snapshots
    from ..obs.timeseries import merge_series

    fragments = [p.get("manifest") for p in points]
    sim_totals = [
        f["sim_time_us"]["total"] for f in fragments if f is not None
    ]
    sim_maxes = [f["sim_time_us"]["max"] for f in fragments if f is not None]
    return {
        "schema": SWEEP_SCHEMA,
        "experiment": experiment,
        "repro_version": __version__,
        "git_revision": git_revision(),
        "num_points": len(points),
        "sim_time_us": {
            "total": sum(sim_totals),
            "max": max(sim_maxes) if sim_maxes else 0.0,
        },
        "metrics": merge_snapshots(p.get("metrics") or {} for p in points),
        # Per-point telemetry series concatenated in point order — the
        # same worker-count-invariance property merge_snapshots has.
        "timeseries": merge_series(p.get("series") for p in points),
        "points": fragments,
    }


# --------------------------------------------------------------- driver ----

def run_sweep(
    experiment: str,
    *,
    workers: int = 1,
    counts: Optional[Sequence[int]] = None,
    thread_counts: Sequence[int] = _FIG7_THREADS,
    serve_opts: Optional[dict] = None,
    seed: Optional[int] = None,
    collect: bool = False,
) -> SweepOutcome:
    """Run one sharded sweep and reassemble the serial-order result.

    ``counts`` applies to the figure sweeps (defaults mirror the serial
    ``run()`` functions) and ``thread_counts`` to fig7; ``serve_opts``
    carries the serve race's knobs (``tenants``/``keys``/``clients``/
    ``requests``/``slo_us``/``policies``/``gated``/``full``). With
    ``collect=True`` every point runs under
    :func:`~repro.obs.context.observe` and the outcome also carries the
    merged metrics snapshot and sweep manifest.
    """
    if experiment not in PARALLEL_EXPERIMENTS:
        raise ValueError(
            f"experiment {experiment!r} is not shardable "
            f"(one of {', '.join(PARALLEL_EXPERIMENTS)})"
        )
    if experiment == "serve":
        specs, meta = _specs_serve(serve_opts or {}, collect, seed)
    else:
        if counts is None:
            counts = {
                "fig4": lambda: default_page_counts(1, 16384),
                "fig5": lambda: default_page_counts(4, 4096),
                "fig7": lambda: default_page_counts(64, 32768),
            }[experiment]()
        counts = [int(n) for n in counts]
        specs = _specs_pages(experiment, counts, collect, thread_counts)
    points = _execute(specs, workers)
    if experiment == "serve":
        result = _assemble_serve(meta, points)
    elif experiment == "fig7":
        result = _assemble_fig7(counts, points, tuple(thread_counts))
    else:
        assemble = {"fig4": _assemble_fig4, "fig5": _assemble_fig5}[experiment]
        result = assemble(counts, points)
    outcome = SweepOutcome(experiment=experiment, workers=workers, results=[result])
    if collect:
        manifest = _sweep_manifest(experiment, points)
        extra_fn = getattr(result, "manifest_extra", None)
        if extra_fn is not None:
            manifest.update(extra_fn())
        outcome.manifest = manifest
        outcome.metrics = manifest["metrics"]
    return outcome
