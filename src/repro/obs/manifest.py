"""The run manifest: one JSON document describing a whole run.

A manifest answers "what produced these numbers?" — machine and cost
model, code revision, wall time — and "what happened?" — kernel stats,
ledger totals, the lock table, link utilisations and the merged
metrics snapshot, aggregated over every system the run created.
Schema: ``docs/observability.md`` §2; ``schema`` field:
``repro.run_manifest/v1``.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
from typing import Optional, Sequence

__all__ = ["SCHEMA", "run_manifest", "git_revision", "machine_dict", "lock_table"]

SCHEMA = "repro.run_manifest/v1"


def git_revision() -> Optional[str]:
    """The repo's HEAD commit, or ``None`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def machine_dict(machine) -> dict:
    """Static description of a :class:`~repro.hardware.topology.Machine`."""
    return {
        "name": machine.name,
        "num_nodes": machine.num_nodes,
        "num_cores": machine.num_cores,
        "node_mem_bytes": [node.mem_bytes for node in machine.nodes],
        "links": sorted(f"{a}-{b}" for a, b in machine.interconnect.graph.edges),
        "link_bw_bytes_per_us": machine.interconnect.link_bw,
        "slit": machine.distance_matrix(),
    }


def lock_table(systems, top: int = 8) -> list[dict]:
    """Most-contended locks, merged by name across ``systems``.

    The structured twin of :func:`repro.report.lock_report`: same
    collection, ranked by total wait time, as JSON-ready rows.
    """
    from ..report import collect_locks  # deferred: report imports System

    merged: dict[str, dict] = {}
    for index, system in enumerate(systems):
        for lock in collect_locks(system):
            stats = lock.stats
            if not stats.acquisitions:
                continue
            # Anonymous locks stay distinct per system to avoid bogus merging.
            name = lock.name or f"<anon #{index}>"
            row = merged.setdefault(
                name,
                {"name": name, "acquisitions": 0, "contended": 0,
                 "wait_us": 0.0, "hold_us": 0.0, "max_queue": 0},
            )
            row["acquisitions"] += stats.acquisitions
            row["contended"] += stats.contended
            row["wait_us"] += stats.wait_time
            row["hold_us"] += stats.hold_time
            row["max_queue"] = max(row["max_queue"], stats.max_queue)
    ranked = sorted(merged.values(), key=lambda r: (-r["wait_us"], r["name"]))
    return ranked[:top]


def _sum_kernel_stats(systems) -> dict:
    out: dict = {}
    for system in systems:
        for field, value in vars(system.kernel.stats).items():
            if isinstance(value, dict):
                slot = out.setdefault(field, {})
                for key, count in value.items():
                    slot[key] = slot.get(key, 0) + count
            else:
                out[field] = out.get(field, 0) + value
    return {
        field: dict(sorted(value.items())) if isinstance(value, dict) else value
        for field, value in sorted(out.items())
    }


def _sum_numastat(systems) -> dict:
    """Per-node numastat rows summed by node index; each row is as long
    as the largest machine's node count."""
    out: dict[str, list[int]] = {}
    for system in systems:
        for row, values in system.kernel.numastat.as_table().items():
            acc = out.setdefault(row, [])
            acc.extend([0] * (len(values) - len(acc)))
            for i, v in enumerate(values):
                acc[i] += v
    return out


def _sum_ledger(systems) -> dict:
    total_us: dict[str, float] = {}
    events: dict[str, int] = {}
    for system in systems:
        ledger = system.kernel.ledger
        for tag, us in ledger.totals.items():
            total_us[tag] = total_us.get(tag, 0.0) + us
            events[tag] = events.get(tag, 0) + ledger.counts[tag]
    return {
        "total_us": dict(sorted(total_us.items())),
        "events": dict(sorted(events.items())),
        "grand_total_us": sum(total_us.values()),
    }


def _peak_links(systems) -> dict:
    peaks: dict[str, float] = {}
    for system in systems:
        for (a, b), util in system.kernel.fabric.utilizations().items():
            key = f"{a}->{b}"
            peaks[key] = max(peaks.get(key, 0.0), util)
    return dict(sorted(peaks.items()))


def run_manifest(
    systems: Sequence,
    *,
    experiment: Optional[str] = None,
    metrics: Optional[dict] = None,
    seed: Optional[int] = None,
    wall_time_s: Optional[float] = None,
    argv: Optional[Sequence[str]] = None,
    extra: Optional[dict] = None,
) -> dict:
    """Build the manifest for a run over ``systems``.

    Counter-like quantities (kernel stats, numastat, ledger) are summed
    across systems — numastat per node index, so machines of different
    sizes merge; link utilisations report the per-link peak; the lock
    table merges by lock name. ``metrics`` is the run's merged metrics
    snapshot when the caller already has one (e.g.
    :meth:`~repro.obs.context.Observation.merged_metrics`, which adds
    trace health); without it the systems' own metrics are merged. The
    ``machine`` and ``cost_model`` blocks describe the first system.
    """
    from .. import __version__
    from .metrics import merge_snapshots, system_metrics

    systems = list(systems)
    if not systems:
        raise ValueError("run_manifest needs at least one system")
    if metrics is None:
        metrics = merge_snapshots(system_metrics(system).snapshot() for system in systems)
    manifest = {
        "schema": SCHEMA,
        "experiment": experiment,
        "repro_version": __version__,
        "git_revision": git_revision(),
        "argv": list(argv) if argv is not None else None,
        "seed": seed,
        "wall_time_s": wall_time_s,
        "machine": machine_dict(systems[0].machine),
        "cost_model": dataclasses.asdict(systems[0].machine.cost),
        "num_systems": len(systems),
        "sim_time_us": {
            "total": sum(s.now for s in systems),
            "max": max(s.now for s in systems),
        },
        "kernel_stats": _sum_kernel_stats(systems),
        "numastat": _sum_numastat(systems),
        "ledger": _sum_ledger(systems),
        "locks": lock_table(systems),
        "links": _peak_links(systems),
        "metrics": metrics,
    }
    if extra:
        manifest.update(extra)
    return manifest
