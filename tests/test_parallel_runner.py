"""Determinism contract of the sharded sweep runner.

Pins the two properties ``repro.experiments.parallel`` promises:

* the merged result is byte-identical for every worker count;
* it is byte-identical to the serial ``run()`` of the same experiment
  (same titles, notes, series order and seeds — ``run_sweep`` calls
  that very ``run()`` with a process-pool map).
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import fig4_throughput, fig5_nexttouch, fig7_scalability, fig_serve
from repro.experiments.parallel import (
    PARALLEL_EXPERIMENTS,
    SWEEP_SCHEMA,
    resolve_workers,
    run_sweep,
)

FIG_COUNTS = [16, 64]
SERVE_OPTS = {"tenants": 2, "keys": 32, "clients": 1, "requests": 60}


def _dump(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def test_resolve_workers():
    assert resolve_workers(None) == 1
    assert resolve_workers(4) == 4
    assert resolve_workers("2") == 2
    assert resolve_workers("auto") >= 1
    with pytest.raises(ValueError):
        resolve_workers(0)
    with pytest.raises(ValueError):
        resolve_workers("-3")


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError):
        run_sweep("fig2")


# ---------------------------------------------- worker-count identity ----


def test_fig4_workers_identical():
    one = run_sweep("fig4", workers=1, page_counts=FIG_COUNTS, collect=True)
    two = run_sweep("fig4", workers=2, page_counts=FIG_COUNTS, collect=True)
    assert _dump(one.results[0]) == _dump(two.results[0])
    assert json.dumps(one.manifest, sort_keys=True) == json.dumps(
        two.manifest, sort_keys=True
    )
    assert one.manifest["schema"] == SWEEP_SCHEMA
    assert one.manifest["num_points"] == len(FIG_COUNTS)


def test_sweep_timeseries_worker_count_invariant():
    """The manifest's merged telemetry series concatenates per-point
    samples in point order — the same order however points were
    sharded — so it is byte-identical for every worker count."""
    from repro.obs.timeseries import SCHEMA

    one = run_sweep("fig4", workers=1, page_counts=FIG_COUNTS, collect=True)
    three = run_sweep("fig4", workers=3, page_counts=FIG_COUNTS, collect=True)
    series = one.manifest["timeseries"]
    assert series["schema"] == SCHEMA
    assert len(series["points"]) >= len(FIG_COUNTS)
    assert all("t_us" in p and "pages_migrated" in p for p in series["points"])
    assert json.dumps(series, sort_keys=True) == json.dumps(
        three.manifest["timeseries"], sort_keys=True
    )


@pytest.mark.parametrize("seed", [None, 123])
def test_serve_workers_identical(seed):
    one = run_sweep("serve", workers=1, seed=seed, **SERVE_OPTS)
    two = run_sweep("serve", workers=2, seed=seed, **SERVE_OPTS)
    assert _dump(one.results[0]) == _dump(two.results[0])


# --------------------------------------------------- serial parity ----


def test_fig4_matches_serial():
    sweep = run_sweep("fig4", page_counts=FIG_COUNTS)
    assert _dump(sweep.results[0]) == _dump(fig4_throughput.run(FIG_COUNTS))


def test_fig5_matches_serial():
    sweep = run_sweep("fig5", page_counts=FIG_COUNTS)
    assert _dump(sweep.results[0]) == _dump(fig5_nexttouch.run(FIG_COUNTS))


def test_fig7_matches_serial():
    sweep = run_sweep("fig7", workers=2, page_counts=[64], thread_counts=(1, 2))
    serial = fig7_scalability.run([64], thread_counts=(1, 2))
    assert _dump(sweep.results[0]) == _dump(serial)


@pytest.mark.parametrize("seed", [None, 123])
def test_serve_matches_serial(seed):
    sweep = run_sweep("serve", workers=2, seed=seed, **SERVE_OPTS)
    serial = fig_serve.run(seed=seed, **SERVE_OPTS)
    assert _dump(sweep.results[0]) == _dump(serial)


def test_parallel_experiments_registry():
    assert PARALLEL_EXPERIMENTS == ("fig4", "fig5", "fig7", "serve")
