"""Always-on kernel telemetry: vmstat-style monotonic counters.

The paper's claim is that migration cost must be *measured* to be
managed — but per-event observers cost host time: a tracepoint
recorder disengages every wall-clock fast path in
``Kernel.turbo_ok()``, and even a tracer (a ledger sink the fast paths
feed, so it keeps them on) stores one sample per charge.
:class:`KernelStats` is the always-on alternative: a block of
plain-integer monotonic counters that both the slow per-page paths and
the ``runops.py`` turbo commits increment **run-granularly**, so

* the counters are bit-identical fast-vs-slow (pinned by
  ``tests/test_fastpath_equivalence.py``), and
* reading them never trips ``turbo_ok()`` — there is nothing to
  attach, they are just attributes on the kernel.

Counting contract (the twin-site map):

* a turbo run commit counts exactly what the per-page storm it
  replaces would have counted: ``demand_zero_run`` /
  ``cow_break_run`` / ``swap_in_run`` over ``run`` pages bump
  ``run_ops`` by ``run`` (one per replaced per-page fault) and
  ``run_pages`` by ``run``;
* batch entries shared by both paths (``demand_zero_batch``,
  ``nt_fault_batch``, ``swap_in_batch`` with ``k > 1``,
  ``sys_swap_out`` per segment) bump once per call;
* ``migrate`` counts one op per pagevec chunk on both paths —
  ``migrate_vma_pages``'s slow chunk loop and ``migrate_run``'s
  chunk replay are in lockstep.

Per-node alloc/free/occupancy are *derived*, not incremented: the
:class:`~repro.kernel.frames.FrameAllocator` lifetime counters are
already bit-identical fast-vs-slow, so :func:`stats_snapshot` simply
reads them.

This module is intentionally stdlib-only (no numpy, no intra-package
imports) so ``kernel.core`` can import it without cycles.
"""

from __future__ import annotations

from typing import Iterator, Tuple

__all__ = [
    "KernelStats",
    "MIGRATION_REASONS",
    "RUN_KINDS",
    "COUNTERS",
    "VARIANT_COUNTERS",
    "stats_snapshot",
]

#: Why pages migrated: the syscall engines tag their calls, the
#: next-touch paths (``nt_fault_batch``, huge next-touch) tag theirs.
MIGRATION_REASONS: Tuple[str, ...] = ("move_pages", "migrate_pages", "nexttouch")

#: The run-granular operation kinds the kernel commits (each has a
#: turbo twin or a shared batch entry — see the module docstring).
RUN_KINDS: Tuple[str, ...] = (
    "demand_zero",
    "nt_fault",
    "cow_break",
    "swap_in",
    "swap_out",
    "migrate",
)


class KernelStats:
    """Kernel-wide monotonic counters, vmstat style.

    Scalars are plain ints; ``migrations`` / ``run_ops`` /
    ``run_pages`` are fixed-key dicts (pre-seeded to zero so fast and
    slow runs produce byte-identical state even for untaken paths,
    and so a typo'd reason/kind raises instead of minting a key).
    """

    SCALARS: Tuple[str, ...] = (
        "minor_faults",
        "nt_faults",
        "prot_faults",
        "cow_faults",
        "pages_migrated",
        "pages_first_touched",
        "pages_swapped_out",
        "pages_swapped_in",
        "cow_reused",
        "cow_copied",
        "nexttouch_marks",
        "tlb_local_flushes",
        "tlb_shootdowns",
        "tlb_ipis",
        "signals_delivered",
        "forks",
    )
    DICTS: Tuple[str, ...] = ("migrations", "run_ops", "run_pages")

    #: Host-side batching counters that *legitimately differ* between
    #: the turbo and forced-slow serve paths (a slow run commits zero
    #: batches by construction). They are deliberately excluded from
    #: :meth:`flat` / :func:`stats_snapshot` — those feed time-series
    #: points that must stay bit-identical fast-vs-slow — and surface
    #: only through :meth:`variant_snapshot`.
    VARIANT_SCALARS: Tuple[str, ...] = (
        "serve_turbo_batches",
        "serve_turbo_requests",
        "serve_slow_requests",
    )

    def __init__(self) -> None:
        self.minor_faults = 0
        self.nt_faults = 0
        self.prot_faults = 0
        self.cow_faults = 0
        self.pages_migrated = 0
        self.pages_first_touched = 0
        self.pages_swapped_out = 0
        self.pages_swapped_in = 0
        self.cow_reused = 0
        self.cow_copied = 0
        self.nexttouch_marks = 0
        self.tlb_local_flushes = 0
        self.tlb_shootdowns = 0
        self.tlb_ipis = 0
        self.signals_delivered = 0
        self.forks = 0
        #: pages migrated, by reason (sums to ``pages_migrated``)
        self.migrations = {reason: 0 for reason in MIGRATION_REASONS}
        #: run-granular commits, by kind
        self.run_ops = {kind: 0 for kind in RUN_KINDS}
        #: pages covered by those commits, by kind
        self.run_pages = {kind: 0 for kind in RUN_KINDS}
        #: serve-turbo batching counters (variant — see VARIANT_SCALARS)
        self.serve_turbo_batches = 0
        self.serve_turbo_requests = 0
        self.serve_slow_requests = 0

    # ------------------------------------------------------------ record ----
    def record_migration(self, reason: str, pages: int) -> None:
        """Attribute ``pages`` migrated to ``reason`` (the caller also
        bumps ``pages_migrated`` beside its existing twin site)."""
        self.migrations[reason] += int(pages)

    def record_run(self, kind: str, pages: int, ops: int = 1) -> None:
        """Count one (or ``ops``) run-granular commits of ``kind``
        covering ``pages`` pages total."""
        self.run_ops[kind] += int(ops)
        self.run_pages[kind] += int(pages)

    # ------------------------------------------------------------ export ----
    def flat(self) -> Iterator[Tuple[str, int]]:
        """Yield every counter as a dotted ``(name, value)`` pair —
        scalars by field name, dict counters as ``field.key``."""
        for name in self.SCALARS:
            yield name, getattr(self, name)
        for field in self.DICTS:
            values = getattr(self, field)
            for key in sorted(values):
                yield f"{field}.{key}", values[key]

    def snapshot(self) -> dict:
        """All counters as one flat ``{dotted name: int}`` dict."""
        return dict(self.flat())

    def variant_snapshot(self) -> dict:
        """The :data:`VARIANT_SCALARS` as a ``{name: int}`` dict.

        Kept out of :meth:`flat` on purpose: these count host-side
        batching decisions, so a turbo and a forced-slow run disagree
        by design. Equivalence diffs must drop them; dashboards that
        want them read this accessor explicitly.
        """
        return {name: getattr(self, name) for name in self.VARIANT_SCALARS}


def stats_snapshot(kernel) -> dict:
    """One flat snapshot of a live kernel's telemetry.

    Everything :meth:`KernelStats.flat` yields, plus the derived
    per-node allocator view (``node_alloc`` / ``node_free`` lifetime
    counters and ``node_used`` current occupancy, in frames).
    """
    out = dict(kernel.stats.flat())
    for node, alloc in enumerate(kernel.allocators):
        out[f"node_alloc.node{node}"] = int(alloc.total_allocs)
        out[f"node_free.node{node}"] = int(alloc.total_frees)
        out[f"node_used.node{node}"] = int(alloc.used)
    return out


#: The documented counter registry: ``(name, unit, description)``.
#: ``docs/observability.md`` §10's table is checked against this by
#: ``tools/docs_check.py``; wildcard names (``<reason>``, ``<kind>``,
#: ``node<N>``) expand over :data:`MIGRATION_REASONS` /
#: :data:`RUN_KINDS` / the machine's nodes.
COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    ("minor_faults", "faults", "demand-zero (first-touch) page faults"),
    ("nt_faults", "faults", "migrate-on-next-touch faults taken"),
    ("prot_faults", "faults", "protection faults (mprotect write fences)"),
    ("cow_faults", "faults", "copy-on-write faults taken"),
    ("pages_migrated", "pages", "pages moved between nodes, all reasons"),
    ("pages_first_touched", "pages", "pages populated by first touch"),
    ("pages_swapped_out", "pages", "pages written to the swap device"),
    ("pages_swapped_in", "pages", "pages faulted back from swap"),
    ("cow_reused", "pages", "COW faults resolved by sole-owner reuse"),
    ("cow_copied", "pages", "COW faults resolved by page copy"),
    ("nexttouch_marks", "pages", "pages marked migrate-on-next-touch"),
    ("tlb_local_flushes", "flushes", "local (single-core) TLB flushes"),
    ("tlb_shootdowns", "flushes", "TLB shootdown rounds initiated"),
    ("tlb_ipis", "ipis", "shootdown IPIs delivered to remote cores"),
    ("signals_delivered", "signals", "signals delivered (e.g. SIGSEGV)"),
    ("forks", "calls", "fork() calls completed"),
    ("migrations.<reason>", "pages", "pages migrated, split by reason"),
    ("run_ops.<kind>", "ops", "run-granular commits, split by kind"),
    ("run_pages.<kind>", "pages", "pages covered by run commits, by kind"),
    ("node_alloc.node<N>", "frames", "lifetime frame allocations on node N"),
    ("node_free.node<N>", "frames", "lifetime frame frees on node N"),
    ("node_used.node<N>", "frames", "frames currently allocated on node N"),
)

#: Variant counters (:attr:`KernelStats.VARIANT_SCALARS`): host-side
#: serve batching decisions — excluded from ``flat()``/
#: :func:`stats_snapshot` and from fast-vs-slow equivalence diffs,
#: read via :meth:`KernelStats.variant_snapshot`. Documented in the
#: same §10 table as :data:`COUNTERS` (the docs checker merges both).
VARIANT_COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    ("serve_turbo_batches", "batches", "serve request runs committed by the turbo path"),
    ("serve_turbo_requests", "requests", "serve requests committed inside turbo batches"),
    ("serve_slow_requests", "requests", "serve requests executed on the per-request path"),
)
