"""/proc-style introspection of a live simulated kernel.

Linux answers "where are my pages?" through procfs —
``/proc/<pid>/numa_maps``, ``/proc/vmstat``, ``/proc/pagetypeinfo`` —
and the paper's Section 2 measurements all start from those files.
This module renders the same views from simulator state:

* :func:`numa_maps` — one line per VMA with its effective policy and
  per-node page counts (plus simulator extras: pages marked
  next-touch, pages on swap);
* :func:`vmstat` — flat ``name value`` counters; the ``numa_*`` rows
  are exact sums of :class:`~repro.kernel.core.NumaStats` and
  ``pgmigrate_success`` mirrors ``kernel.stats.pages_migrated``;
* :func:`pagetypeinfo` — per-node frame usage;
* :func:`placement_heatmap` — a time × node matrix of page placements
  folded from a recorded tracepoint stream, rendered as an ASCII
  heatmap (the per-VMA placement timeline the paper's figures imply
  but procfs never offered).

Each view comes in two flavours: a ``*_data`` function returning
plain structures (what the tests assert against) and a renderer
returning the procfs-style text (what ``repro-experiments
introspect`` prints).
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from ..kernel.mempolicy import PolicyKind
from ..kernel.pagetable import PTE_NEXTTOUCH

__all__ = [
    "policy_string",
    "numa_maps_data",
    "numa_maps",
    "vmstat_data",
    "vmstat",
    "pagetypeinfo_data",
    "pagetypeinfo",
    "placement_samples",
    "placement_heatmap",
]

#: Tracepoints that place pages on a node, with the field holding the
#: destination node. ``migrate:phase_copy`` covers sync migration and
#: the next-touch copy; ``fault:nt_stay`` is a placement *decision*
#: (pages confirmed local) and counts too.
_PLACEMENT_EVENTS = {
    "fault:demand_zero": "node",
    "fault:nt_migrate": "dest",
    "fault:nt_stay": "node",
    "migrate:phase_copy": "dest",
    "swap:in": "node",
}


def policy_string(policy) -> str:
    """Render a :class:`~repro.kernel.mempolicy.MemPolicy` the way
    ``numa_maps`` spells policies (``default``, ``bind:0-1``, ...)."""
    if policy is None or policy.kind is PolicyKind.DEFAULT:
        return "default"
    kind = {
        PolicyKind.BIND: "bind",
        PolicyKind.PREFERRED: "prefer",
        PolicyKind.INTERLEAVE: "interleave",
    }[policy.kind]
    return f"{kind}:{','.join(str(n) for n in policy.nodes)}"


# ---------------------------------------------------------------- numa_maps --

def numa_maps_data(process, num_nodes: int) -> list[dict]:
    """One record per VMA: address, policy, per-node page counts."""
    from ..kernel.swap import swapped_pages

    records = []
    for vma in process.addr_space.vmas:
        present = vma.pt.frame >= 0
        nodes = vma.pt.node[present]
        per_node = np.bincount(nodes, minlength=num_nodes) if nodes.size else np.zeros(
            num_nodes, dtype=np.int64
        )
        records.append(
            {
                "start": vma.start,
                "policy": policy_string(process.policy_for(vma)),
                "kind": "anon" if vma.anonymous else "file",
                "shared": vma.shared,
                "name": vma.name,
                "npages": vma.npages,
                "mapped": int(np.count_nonzero(present)),
                "per_node": [int(c) for c in per_node[:num_nodes]],
                "nexttouch": int(
                    np.count_nonzero(vma.pt.flags & np.uint16(PTE_NEXTTOUCH))
                ),
                "swapped": int(swapped_pages(vma).size),
            }
        )
    return records


def numa_maps(process, num_nodes: int) -> str:
    """The ``/proc/<pid>/numa_maps`` view of one process."""
    lines = []
    for rec in numa_maps_data(process, num_nodes):
        parts = [f"{rec['start']:012x}", rec["policy"]]
        parts.append(f"{rec['kind']}={rec['mapped']}")
        if rec["shared"]:
            parts.append("shared")
        for node, count in enumerate(rec["per_node"]):
            if count:
                parts.append(f"N{node}={count}")
        if rec["nexttouch"]:
            parts.append(f"nexttouch={rec['nexttouch']}")
        if rec["swapped"]:
            parts.append(f"swap={rec['swapped']}")
        if rec["name"]:
            parts.append(f"name={rec['name']}")
        lines.append(" ".join(parts))
    return "\n".join(lines)


# ------------------------------------------------------------------- vmstat --

def vmstat_data(kernel) -> dict[str, int]:
    """Flat counter dict; ``numa_*`` rows sum :class:`NumaStats`.

    Every ``pg*``/``nr_tlb*``/``pswp*`` row reads the always-on
    :class:`~repro.obs.telemetry.KernelStats` counters (bit-identical
    fast-vs-slow, pinned in ``tests/test_procfs.py``) rather than
    recomputing from other subsystems; only the occupancy gauges
    (``nr_free_pages``, ``nr_swap_used``) are derived state.
    """
    stats = kernel.stats
    table = kernel.numastat.as_table()
    out = {
        "nr_free_pages": sum(kernel.node_free_pages()),
        "pgfault": stats.minor_faults + stats.nt_faults + stats.cow_faults,
        "pgfault_minor": stats.minor_faults,
        "pgfault_nexttouch": stats.nt_faults,
        "pgfault_cow": stats.cow_faults,
        "pgfault_prot": stats.prot_faults,
        "pgalloc_first_touch": stats.pages_first_touched,
        "pgmigrate_success": stats.pages_migrated,
        "pgmigrate_move_pages": stats.migrations["move_pages"],
        "pgmigrate_migrate_pages": stats.migrations["migrate_pages"],
        "pgmigrate_nexttouch": stats.migrations["nexttouch"],
        "pgnexttouch_marked": stats.nexttouch_marks,
        "pgcow_reuse": stats.cow_reused,
        "pgcow_copy": stats.cow_copied,
        "numa_hit": sum(table["numa_hit"]),
        "numa_miss": sum(table["numa_miss"]),
        "numa_foreign": sum(table["numa_foreign"]),
        "numa_interleave": sum(table["interleave_hit"]),
        "nr_tlb_local_flush": stats.tlb_local_flushes,
        "nr_tlb_remote_flush": stats.tlb_shootdowns,
        "nr_tlb_remote_flush_received": stats.tlb_ipis,
        "nr_forks": stats.forks,
        "nr_signals": stats.signals_delivered,
    }
    if kernel.swap is not None:
        out["pswpout"] = stats.pages_swapped_out
        out["pswpin"] = stats.pages_swapped_in
        out["nr_swap_used"] = kernel.swap.used
    return out


def vmstat(kernel) -> str:
    """The ``/proc/vmstat`` view (one ``name value`` pair per line)."""
    return "\n".join(f"{k} {v}" for k, v in vmstat_data(kernel).items())


# ------------------------------------------------------------- pagetypeinfo --

def pagetypeinfo_data(kernel) -> list[dict]:
    """Per-node frame usage (capacity / used / free)."""
    return [
        {
            "node": alloc.node_id,
            "capacity": alloc.capacity,
            "used": alloc.used,
            "free": alloc.free,
        }
        for alloc in kernel.allocators
    ]


def pagetypeinfo(kernel) -> str:
    """The (simplified) ``/proc/pagetypeinfo`` view."""
    lines = ["node  capacity      used      free"]
    for rec in pagetypeinfo_data(kernel):
        lines.append(
            f"{rec['node']:>4}  {rec['capacity']:>8}  {rec['used']:>8}  {rec['free']:>8}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------- placement views --

def placement_samples(
    events: Iterable, *, vma: Optional[int] = None
) -> list[tuple[float, int, int]]:
    """``(t_us, node, pages)`` placement samples from an event stream.

    Covers every tracepoint that decides where pages live (first
    touch, next-touch migrate/stay, sync-migration copies, swap-in).
    ``vma`` restricts the timeline to one mapping (by start address).
    """
    samples = []
    for event in events:
        field = _PLACEMENT_EVENTS.get(event.name)
        if field is None:
            continue
        if vma is not None and event.fields.get("vma") != vma:
            continue
        pages = int(event.fields["pages"])
        if pages:
            samples.append((event.t_us, int(event.fields[field]), pages))
    return samples


def placement_heatmap(
    events: Iterable,
    num_nodes: int,
    *,
    buckets: int = 20,
    vma: Optional[int] = None,
) -> tuple[list[list[int]], str]:
    """Time × node placement matrix plus its ASCII rendering.

    The recorded span is divided into ``buckets`` equal windows;
    ``matrix[node][bucket]`` counts pages placed on that node in that
    window. The rendering shades each cell 0-9 against the busiest
    cell, one row per node.
    """
    samples = placement_samples(events, vma=vma)
    matrix = [[0] * buckets for _ in range(num_nodes)]
    if not samples:
        return matrix, "(no placement events)"
    t_lo = min(s[0] for s in samples)
    t_hi = max(s[0] for s in samples)
    span = max(t_hi - t_lo, 1e-9)
    for t_us, node, pages in samples:
        bucket = min(int((t_us - t_lo) / span * buckets), buckets - 1)
        if 0 <= node < num_nodes:
            matrix[node][bucket] += pages
    peak = max(max(row) for row in matrix) or 1
    shades = "·123456789"
    lines = [
        f"placement heatmap: {t_lo:.0f}..{t_hi:.0f} us, "
        f"{buckets} buckets, peak {peak} pages/cell"
    ]
    for node, row in enumerate(matrix):
        cells = "".join(
            shades[min(9, (count * 9 + peak - 1) // peak)] if count else "·"
            for count in row
        )
        lines.append(f"N{node} |{cells}|")
    return matrix, "\n".join(lines)
