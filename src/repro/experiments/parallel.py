"""Sharded sweep runner: fan sweep points across worker processes.

The fig4/fig5/fig7 sweeps and the serve policy race are embarrassingly
parallel — every point builds its own fresh system and never looks at
another point's state. Each sweep module defines its sweep once: a
module-level *point function* (one x of the figure, one ``(theta,
policy)`` of the race) and a ``run(..., map_fn=map)`` that maps it over
the points in serial order and builds the result. :func:`run_sweep`
calls that same ``run()`` with a fork-pool map in place of the builtin
``map``, so the sharded and the serial result cannot disagree.

Determinism contract (pinned by ``tests/test_parallel_runner.py``):

* no point's inputs depend on the worker that runs it (every serve
  point gets the root seed, as in the serial race) and the pool returns
  the points in serial order, so the result is byte-identical to the
  serial ``run()`` for every worker count;
* merged manifests and metrics exclude anything host-dependent
  (wall time, argv, worker count); per-point metrics snapshots are
  merged with :func:`repro.obs.metrics.merge_snapshots` in point order.

``--workers N`` on the CLI routes the four sweep experiments through
:func:`run_sweep`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from . import fig4_throughput, fig5_nexttouch, fig7_scalability, fig_serve

__all__ = [
    "PARALLEL_EXPERIMENTS",
    "SWEEP_MODULES",
    "SWEEP_SCHEMA",
    "SweepOutcome",
    "resolve_workers",
    "run_sweep",
]

#: Experiment name -> the module whose ``run(..., map_fn=...)`` defines it.
SWEEP_MODULES = {
    "fig4": fig4_throughput,
    "fig5": fig5_nexttouch,
    "fig7": fig7_scalability,
    "serve": fig_serve,
}

#: Experiments the CLI may shard with ``--workers``.
PARALLEL_EXPERIMENTS = tuple(SWEEP_MODULES)

SWEEP_SCHEMA = "repro.sweep_manifest/v1"


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


def _run_point(spec: dict) -> dict:
    """Execute one sweep point (the worker-side entry point)."""
    fn, arg = spec["fn"], spec["arg"]
    if not spec["collect"]:
        return {"values": fn(arg)}
    from ..obs import observe, run_manifest
    from ..obs.timeseries import TimeSeriesSampler, merge_series

    with observe() as obs:
        values = fn(arg)
    if not obs.systems:
        return {"values": values, "metrics": {}, "manifest": None, "series": None}
    metrics = obs.merged_metrics()
    manifest = run_manifest(
        obs.systems,
        experiment=spec["experiment"],
        metrics=metrics,
        seed=spec["seed"],
    )
    # One end-of-point telemetry sample per observed system, merged in
    # system-creation order — everything sampled is simulated state, so
    # the series is independent of which worker ran the point.
    per_system = []
    for system in obs.systems:
        sampler = TimeSeriesSampler(system.kernel)
        sampler.sample()
        per_system.append(sampler.to_dict())
    return {
        "values": values,
        "metrics": metrics,
        "manifest": manifest,
        "series": merge_series(per_system),
    }


def _execute(specs: list[dict], workers: int) -> list[dict]:
    """Run the specs, preserving point order in the returned list."""
    if workers <= 1 or len(specs) <= 1:
        return [_run_point(spec) for spec in specs]
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    with ctx.Pool(processes=min(workers, len(specs))) as pool:
        return pool.map(_run_point, specs)


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


def run_sweep(
    experiment: str, *, workers: int = 1, collect: bool = False, **run_kwargs
) -> SweepOutcome:
    """Run the experiment's own ``run(**run_kwargs)`` with its points
    mapped over ``workers`` processes.

    With ``collect=True`` every point runs under
    :func:`~repro.obs.context.observe` and the outcome also carries the
    merged metrics snapshot and sweep manifest.
    """
    if experiment not in SWEEP_MODULES:
        raise ValueError(
            f"experiment {experiment!r} is not shardable "
            f"(one of {', '.join(PARALLEL_EXPERIMENTS)})"
        )
    points: list[dict] = []

    def pool_map(fn, args) -> list:
        specs = [
            {
                "fn": fn,
                "arg": arg,
                "collect": collect,
                "experiment": experiment,
                "seed": run_kwargs.get("seed"),
            }
            for arg in args
        ]
        done = _execute(specs, workers)
        points.extend(done)
        return [point["values"] for point in done]

    result = SWEEP_MODULES[experiment].run(map_fn=pool_map, **run_kwargs)
    outcome = SweepOutcome(experiment=experiment, workers=workers, results=[result])
    if collect:
        manifest = _sweep_manifest(experiment, points)
        extra_fn = getattr(result, "manifest_extra", None)
        if extra_fn is not None:
            manifest.update(extra_fn())
        outcome.manifest = manifest
        outcome.metrics = manifest["metrics"]
    return outcome
