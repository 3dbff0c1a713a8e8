"""Kernel-state invariant checkers.

Each invariant is a named function reading *live* kernel state and
returning a list of human-readable problem descriptions (empty when the
state is consistent). The registry :data:`INVARIANTS` maps names to
checkers; :func:`check_kernel` runs any subset and returns structured
:class:`Violation` records, and :func:`assert_invariants` raises
:class:`InvariantViolation` — the form the pytest fixture and the
``--check`` CLI flag use.

A sweep reads the page tables once: :func:`check_kernel` builds one
:class:`KernelView` (every VMA's PTE columns concatenated) and hands it
to each checker, so the page-level checks run as whole-array NumPy
expressions rather than once per VMA. A segment-offset table maps an
offending page back to its ``proc:vma`` for the message.

The invariant names are part of the documented contract
(``docs/correctness.md`` lists them; ``tools/docs_check.py`` verifies
the two stay in sync):

* ``vma_layout`` — VMA lists sorted, non-overlapping, aligned, index
  arrays in sync, swap columns sized right;
* ``pte_consistency`` — PTE flag algebra (PRESENT needs a frame, WRITE
  needs PRESENT, NEXTTOUCH excludes PRESENT), the node cache matches
  the frame's owning node, and no PTE points at a freed frame;
* ``frame_refcounts`` — every frame's mapping count (page tables plus
  page caches) equals the kernel's recorded reference count;
* ``node_accounting`` — per-node allocator ``used`` equals the
  lifetime alloc/free delta, the allocation bitmap, and the number of
  distinct frames actually held by mappings;
* ``cow_write_exclusion`` — no private mapping holds a hardware WRITE
  bit on a frame that is still shared, nor a COW flag on a page
  without a frame;
* ``numastat_balance`` — ``numastat`` rows are non-negative and misses
  on one node are matched by foreigns on another;
* ``ledger_consistency`` — ledger totals/counts agree, kernel event
  counters never go negative, and the per-reason migration counts sum
  to ``pages_migrated``;
* ``swap_consistency`` — swap slots are referenced at most once, never
  by a populated page, and the device's used-slot count matches the
  page tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from ..errors import SimulationError
from ..kernel.core import Kernel
from ..kernel.frames import NODE_STRIDE_SHIFT, node_of_frame
from ..kernel.pagetable import (
    PTE_COW,
    PTE_NEXTTOUCH,
    PTE_PRESENT,
    PTE_WRITE,
)

__all__ = [
    "Violation",
    "InvariantViolation",
    "KernelView",
    "INVARIANTS",
    "check_kernel",
    "check_system",
    "assert_invariants",
]


@dataclass(frozen=True)
class Violation:
    """One broken invariant: which checker and what it saw."""

    invariant: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - formatting
        return f"[{self.invariant}] {self.message}"


class InvariantViolation(SimulationError):
    """Raised by :func:`assert_invariants` when any checker fails."""

    def __init__(self, violations: Sequence[Violation]) -> None:
        self.violations = list(violations)
        lines = "\n".join(f"  {v}" for v in self.violations)
        super().__init__(f"{len(self.violations)} invariant violation(s):\n{lines}")


def _cat(arrays: list[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(arrays) if arrays else np.empty(0, dtype=dtype)


class KernelView:
    """One read of every page table, shared by the checkers of a sweep.

    ``frame``, ``node``, ``flags`` and ``swap`` are the PTE columns of
    every ``(proc, vma)`` concatenated in walk order; ``private`` marks
    the pages of private VMAs. VMA ``i`` (a *segment*) starts at page
    ``offsets[i]``. Checkers that need no page data read ``kernel``.
    """

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self._vmas = [(proc, vma) for proc in kernel.processes for vma in proc.addr_space.vmas]
        pts = [vma.pt for _proc, vma in self._vmas]
        sizes = [pt.frame.size for pt in pts]
        self.offsets = [0, *accumulate(sizes)][:-1]
        self.frame = _cat([pt.frame for pt in pts], np.int64)
        self.node = _cat([pt.node for pt in pts], np.int16)
        self.flags = _cat([pt.flags for pt in pts], np.uint16)
        shared = np.array([vma.shared for _proc, vma in self._vmas], dtype=bool)
        self.private = ~np.repeat(shared, sizes)
        # A mis-sized swap column (vma_layout reports it) reads as off swap.
        swaps = [pt.swap if pt.swap.size == n else np.full(n, -1) for pt, n in zip(pts, sizes)]
        self.swap = _cat(swaps, np.int64)

    # ------------------------------------------------------------ segments --
    def offenders(self, mask: np.ndarray) -> list[int]:
        """Segments holding a page where the per-page ``mask`` is set."""
        pages = np.flatnonzero(mask)
        return np.unique(np.searchsorted(self.offsets, pages, side="right") - 1).tolist()

    def name(self, seg: int) -> str:
        """``proc:vma`` label of segment ``seg`` for messages."""
        proc, vma = self._vmas[seg]
        return f"{proc.name}:{vma.name or hex(vma.start)}"

    def pages(self, seg: int) -> slice:
        """The view's index range of segment ``seg``."""
        start = self.offsets[seg]
        return slice(start, start + self._vmas[seg][1].pt.frame.size)

    # -------------------------------------------------------- frame holders --
    @cached_property
    def holders(self) -> tuple[np.ndarray, np.ndarray]:
        """Every distinct held frame id (sorted) and how many references
        it has: page-table mappings plus file page caches."""
        cached = chain.from_iterable(file.cache.values() for file in self.kernel.files)
        held = np.concatenate([self.frame[self.frame >= 0], np.fromiter(cached, np.int64)])
        return np.unique(held, return_counts=True)

    @cached_property
    def refs(self) -> tuple[np.ndarray, np.ndarray]:
        """The kernel's refcount table as ``(frame ids, counts)``."""
        table = self.kernel.frame_refs
        return (
            np.fromiter(table.keys(), np.int64, len(table)),
            np.fromiter(table.values(), np.int64, len(table)),
        )

    @cached_property
    def recorded(self) -> tuple[np.ndarray, np.ndarray]:
        """``(refcount, held)``: each held frame's refcount in the
        kernel's table (1 when it has no entry), and whether each table
        entry names a frame that something holds."""
        frames, counts = self.holders
        ref_frames, ref_counts = self.refs
        at = np.searchsorted(frames, ref_frames)
        held = np.append(frames, -1)[at] == ref_frames
        refcount = np.ones_like(counts)
        refcount[at[held]] = ref_counts[held]
        return refcount, held


#: name -> checker(view) -> list of problem strings
INVARIANTS: dict[str, Callable[[KernelView], list[str]]] = {}


def _invariant(fn: Callable[[KernelView], list[str]]) -> Callable[[KernelView], list[str]]:
    INVARIANTS[fn.__name__] = fn
    return fn


def _blame(view: KernelView, checks: Iterable[tuple[np.ndarray, str]]) -> list[str]:
    """``"proc:vma: text"`` for every VMA holding a page of each
    ``(mask, text)`` condition."""
    return [
        f"{view.name(seg)}: {text}"
        for mask, text in checks
        if mask.any()
        for seg in view.offenders(mask)
    ]


# ------------------------------------------------------------------ checkers --
@_invariant
def vma_layout(view: KernelView) -> list[str]:
    """VMA lists sorted, non-overlapping, aligned and index-synced."""
    problems: list[str] = []
    for proc in view.kernel.processes:
        space = proc.addr_space
        vmas = space.vmas
        for a, b in zip(vmas, vmas[1:]):
            if a.end > b.start:
                problems.append(f"{proc.name}: overlapping VMAs {a!r} / {b!r}")
            if a.start >= b.start:
                problems.append(f"{proc.name}: VMA list not sorted at {a!r}")
        if space._starts != [v.start for v in vmas]:
            problems.append(f"{proc.name}: starts index out of sync with VMA list")
        for vma in vmas:
            if vma.start % (1 << 12):
                problems.append(f"{proc.name}: misaligned VMA start 0x{vma.start:x}")
            if vma.pt.npages != vma.npages or vma.pt.npages < 1:
                problems.append(f"{proc.name}: page table size mismatch in {vma!r}")
            if vma.pt.swap.size != vma.pt.npages:
                problems.append(f"{proc.name}: swap column size mismatch in {vma!r}")
    return problems


@_invariant
def pte_consistency(view: KernelView) -> list[str]:
    """PTE flag algebra, node cache, and no-freed-frame references."""
    allocators = view.kernel.allocators
    frame, flags = view.frame, view.flags
    populated = frame >= 0
    unpopulated = ~populated
    present = (flags & PTE_PRESENT) != 0
    nt = (flags & PTE_NEXTTOUCH) != 0
    owners = node_of_frame(frame)  # -1 where no frame, like an unset node cache
    stale = view.node != owners
    problems = _blame(view, [
        (present & unpopulated, "PRESENT page without a frame"),
        (((flags & PTE_WRITE) != 0) & ~present, "WRITE bit without PRESENT"),
        (nt & present, "NEXTTOUCH page still PRESENT"),
        (nt & unpopulated, "NEXTTOUCH page without a frame"),
        (populated & (view.node < 0), "frame attached but node cache unset"),
        (unpopulated & stale, "node cache set without a frame"),
        (populated & stale, "node cache disagrees with frame's owning node"),
        (owners >= len(allocators), "frame id outside any node's range"),
        (populated & (view.swap >= 0), "page both populated and on swap"),
    ])
    # No PTE maps a freed frame. Each node's held frames are one slice of
    # the sorted holders, looked up in that node's own bitmap; a bad
    # frame only a page cache holds names no VMA (node_accounting's job).
    frames = view.holders[0]
    bases = [alloc._base for alloc in allocators]
    bounds = np.searchsorted(frames, [*bases, len(allocators) << NODE_STRIDE_SHIFT]).tolist()
    for alloc, lo, hi in zip(allocators, bounds, bounds[1:]):
        if lo == hi:
            continue
        local = frames[lo:hi] - alloc._base
        if local[-1] >= alloc.capacity:  # sorted: the last is the largest
            problems += _blame(view, [(
                np.isin(frame, frames[lo:hi][local >= alloc.capacity]),
                f"frame beyond node {alloc.node_id} capacity",
            )])
            local = local[local < alloc.capacity]
        # The bitmap ends at or past the bump pointer: an index beyond
        # its end was never handed out, so it counts as freed. Sorted,
        # such indices are a tail.
        covered = local[: np.searchsorted(local, alloc._allocated.size)]
        held = alloc._allocated[covered]
        if covered.size < local.size or not held.all():
            freed = np.concatenate((covered[~held], local[covered.size :]))
            problems += _blame(view, [(
                np.isin(frame, freed + alloc._base),
                f"PTE points at a freed frame (node {alloc.node_id})",
            )])
    return problems


@_invariant
def frame_refcounts(view: KernelView) -> list[str]:
    """Recorded reference counts equal actual holder counts."""
    frames, counts = view.holders
    ref_frames, ref_counts = view.refs
    refcount, held = view.recorded
    wrong = refcount != counts
    low = ref_counts < 2
    return [
        *(f"frame {f}: {c} holder(s) but recorded refcount {r}"
          for f, c, r in zip(frames[wrong], counts[wrong], refcount[wrong])),
        *(f"frame {f}: refcount table entry {r} below 2"
          for f, r in zip(ref_frames[low], ref_counts[low])),
        *(f"frame {f}: refcount {r} recorded but nothing maps it"
          for f, r in zip(ref_frames[~held], ref_counts[~held])),
    ]


@_invariant
def node_accounting(view: KernelView) -> list[str]:
    """Allocator ``used`` == alloc/free delta == bitmap == held frames."""
    problems: list[str] = []
    allocators = view.kernel.allocators
    held = np.bincount(node_of_frame(view.holders[0]), minlength=len(allocators))
    for alloc in allocators:
        used = alloc.used
        delta = alloc.total_allocs - alloc.total_frees
        bitmap = int(np.count_nonzero(alloc._allocated))
        distinct = int(held[alloc.node_id])
        if used != delta:
            problems.append(
                f"node {alloc.node_id}: used={used} but allocs-frees={delta}"
            )
        if used != bitmap:
            problems.append(
                f"node {alloc.node_id}: used={used} but allocation bitmap says {bitmap}"
            )
        if used != distinct:
            problems.append(
                f"node {alloc.node_id}: used={used} but mappings hold "
                f"{distinct} distinct frame(s)"
            )
    return problems


@_invariant
def cow_write_exclusion(view: KernelView) -> list[str]:
    """No private mapping has hardware WRITE on a still-shared frame,
    nor a COW flag on a page without a frame."""
    frame, flags, private = view.frame, view.flags, view.private
    writable = private & ((flags & PTE_WRITE) != 0) & (frame >= 0)
    shared = np.zeros_like(writable)
    shared[writable] = view.recorded[0][np.searchsorted(view.holders[0], frame[writable])] > 1
    problems = []
    if shared.any():
        for seg in view.offenders(shared):
            pages = view.pages(seg)
            bad = sorted(frame[pages][shared[pages]][:4].tolist())
            problems.append(f"{view.name(seg)}: WRITE bit on shared frame(s) {bad}")
    return problems + _blame(view, [
        (private & ((flags & PTE_COW) != 0) & (frame < 0), "COW flag on a page without a frame"),
    ])


@_invariant
def numastat_balance(view: KernelView) -> list[str]:
    """``numastat`` rows non-negative; misses balance foreigns."""
    problems: list[str] = []
    stat = view.kernel.numastat
    for row, values in stat.as_table().items():
        if any(v < 0 for v in values):
            problems.append(f"numastat row {row} went negative: {values}")
    if sum(stat.numa_miss) != sum(stat.numa_foreign):
        problems.append(
            f"sum(numa_miss)={sum(stat.numa_miss)} != "
            f"sum(numa_foreign)={sum(stat.numa_foreign)}"
        )
    for node, (il, hit) in enumerate(zip(stat.interleave_hit, stat.numa_hit)):
        if il > hit:
            problems.append(f"node {node}: interleave_hit {il} exceeds numa_hit {hit}")
    return problems


@_invariant
def ledger_consistency(view: KernelView) -> list[str]:
    """Ledger totals/counts agree; kernel counters stay non-negative
    and the per-reason migration counts sum to ``pages_migrated``."""
    problems: list[str] = []
    ledger = view.kernel.ledger
    stats = view.kernel.stats
    if set(ledger.totals) != set(ledger.counts):
        extra = set(ledger.totals) ^ set(ledger.counts)
        problems.append(f"ledger totals/counts keys diverge: {sorted(extra)}")
    for tag, total in ledger.totals.items():
        if total < -1e-9:
            problems.append(f"ledger tag {tag!r} total went negative: {total}")
        if ledger.counts.get(tag, 0) < 1:
            problems.append(f"ledger tag {tag!r} has a total but no events")
    for field, value in stats.flat():
        if value < 0:
            problems.append(f"kernel stat {field} went negative: {value}")
    by_reason = sum(stats.migrations.values())
    if by_reason != stats.pages_migrated:
        problems.append(
            f"migrations by reason sum to {by_reason} but pages_migrated={stats.pages_migrated}"
        )
    return problems


@_invariant
def swap_consistency(view: KernelView) -> list[str]:
    """Swap slots unique, only on frame-less pages, device count right."""
    device = view.kernel.swap
    slots, counts = np.unique(view.swap[view.swap >= 0], return_counts=True)
    dup = counts > 1
    problems = [
        f"swap slot {slot} referenced by {count} pages"
        for slot, count in zip(slots[dup], counts[dup])
    ]
    if device is None:
        if slots.size:
            problems.append(f"{slots.size} swap slot(s) referenced but no device attached")
        return problems
    referenced = slots.tolist()
    unallocated = set(device._free).intersection(referenced)
    unallocated.update(slots[slots >= device._bump].tolist())
    problems += [f"swap slot {slot} referenced but not allocated" for slot in sorted(unallocated)]
    if device.used != len(referenced):
        problems.append(
            f"swap device holds {device.used} slot(s) but page tables "
            f"reference {len(referenced)} (leaked or phantom slots)"
        )
    return problems


# ------------------------------------------------------------------ drivers --
def check_kernel(
    kernel: Kernel, names: Optional[Iterable[str]] = None
) -> list[Violation]:
    """Run invariant checkers over a kernel; returns all violations.

    ``names`` selects a subset (default: every registered invariant).
    Unknown names raise ``KeyError`` — a misspelled checker silently
    passing is exactly the failure mode this layer exists to prevent.
    Every selected checker reads the same :class:`KernelView`.
    """
    selected = list(INVARIANTS) if names is None else list(names)
    checkers = [(name, INVARIANTS[name]) for name in selected]
    view = KernelView(kernel)
    return [
        Violation(name, message) for name, checker in checkers for message in checker(view)
    ]


def check_system(system, names: Optional[Iterable[str]] = None) -> list[Violation]:
    """:func:`check_kernel` for a :class:`~repro.system.System`."""
    return check_kernel(system.kernel, names)


def assert_invariants(kernel: Kernel, names: Optional[Iterable[str]] = None) -> None:
    """Raise :class:`InvariantViolation` if any checker fails."""
    violations = check_kernel(kernel, names)
    if violations:
        raise InvariantViolation(violations)
