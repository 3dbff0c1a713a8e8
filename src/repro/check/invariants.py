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
expressions rather than once per VMA. A checker first screens the
whole view with a few such expressions and formats messages only when
the screen fires; a segment-offset table then maps an offending page
back to its ``proc:vma`` for the message. The differential harness
hands the same view to its state diff (``view=``), which reads the
per-page codes of :attr:`KernelView.pte` and :meth:`KernelView.page_codes`.

The invariant names are part of the documented contract
(``docs/correctness.md`` lists them; ``tools/docs_check.py`` verifies
the two stay in sync):

* ``vma_layout`` — VMA lists sorted, non-overlapping, aligned, index
  arrays in sync, no VMA empty, and the node, flags and swap columns
  sized like the frame column;
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
* ``numastat_balance`` — ``numastat`` rows are non-negative, misses
  on one node are matched by foreigns on another, and every first
  touch is booked once (hits plus misses equal
  ``pages_first_touched``);
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
from operator import attrgetter
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
from ..util.units import PAGE_SHIFT, PAGE_SIZE

__all__ = [
    "Violation",
    "InvariantViolation",
    "KernelView",
    "INVARIANTS",
    "check_kernel",
    "check_system",
    "assert_invariants",
    "page_tuple",
]

# ---------------------------------------------------------------- page codes --
# One int per page carries what the checks and the state diff read. Bits
# 0-2 and 5 are the PTE's PRESENT, WRITE, NEXTTOUCH and COW bits, where
# the PTE keeps them; the view derives the next two.
#: A frame is attached (the PTE's informational ACCESSED position).
POPULATED = 1 << 3
#: The page holds a swap slot (the PTE's informational DIRTY position).
ON_SWAP = 1 << 4
_PTE_KEPT = PTE_PRESENT | PTE_WRITE | PTE_NEXTTOUCH | PTE_COW
#: The diff's page code adds node + 1 and the frame's refcount above
#: the low byte (both 0 without a frame); the oracle packs its pages
#: the same way.
NODE_SHIFT = 8
REFS_SHIFT = 24


def page_tuple(code: int) -> tuple:
    """A page code as the diff reports it: ``(node, P, W, NT, COW,
    swap, refs)``."""
    return (
        ((code >> NODE_SHIFT) & 0xFFFF) - 1,
        bool(code & PTE_PRESENT),
        bool(code & PTE_WRITE),
        bool(code & PTE_NEXTTOUCH),
        bool(code & PTE_COW),
        bool(code & ON_SWAP),
        code >> REFS_SHIFT,
    )


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


def _sized(column: np.ndarray, n: int, fill: int) -> np.ndarray:
    """``column``, or ``n`` entries of ``fill`` if it does not hold ``n``."""
    return column if column.size == n else np.full(n, fill, dtype=column.dtype)


class KernelView:
    """One read of every page table, shared by the checkers of a sweep.

    ``frame``, ``node``, ``flags`` and ``swap`` are the PTE columns of
    every ``(proc, vma)`` concatenated in walk order. VMA ``i`` (a
    *segment*, ``segments[i]``) starts at ``starts[i]`` and covers
    ``sizes[i]`` pages, the view's pages ``offsets[i]`` to
    ``offsets[i + 1]``. Every sweep reads ``pte`` and the frame holders,
    so they are built here; checkers that need no page data read
    ``kernel``.
    """

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        spaces = [proc.addr_space.vmas for proc in kernel.processes]
        #: ``(proc, vma)`` of every segment, in walk order
        self.segments = [(proc, vma) for proc, vmas in zip(kernel.processes, spaces) for vma in vmas]
        #: each process's first segment, then the segment count
        self._firsts = [0, *accumulate(map(len, spaces))]
        pts = [vma.pt for _proc, vma in self.segments]
        self.starts = [vma.start for _proc, vma in self.segments]
        self.sizes = sizes = [pt.frame.size for pt in pts]
        self.offsets = [0, *accumulate(sizes)]
        self.frame = frame = _cat([pt.frame for pt in pts], np.int64)
        #: Segments whose ``node``, ``flags`` or swap column is sized
        #: unlike ``frame``: vma_layout reports them, and the view reads
        #: a placeholder column for them (no node, no flag, off swap).
        self.missized = [
            seg for seg, (pt, n) in enumerate(zip(pts, sizes))
            if not pt.node.size == pt.flags.size == pt.swap.size == n
        ]
        node, flags, swap = [pt.node for pt in pts], [pt.flags for pt in pts], [pt.swap for pt in pts]
        for seg in self.missized:
            n = sizes[seg]
            node[seg], flags[seg] = _sized(node[seg], n, -1), _sized(flags[seg], n, 0)
            swap[seg] = _sized(swap[seg], n, -1)
        self.node = _cat(node, np.int16)
        self.flags = _cat(flags, np.uint16)
        self.swap = _cat(swap, np.int64)
        #: Pages with a frame attached.
        self.populated = populated = frame >= 0
        #: Each page's PRESENT, WRITE, NEXTTOUCH and COW bits plus
        #: :data:`POPULATED` and :data:`ON_SWAP`: the code the PTE
        #: screens read and the low byte of :meth:`page_codes`.
        self.pte = (self.flags & _PTE_KEPT) | populated * POPULATED | (self.swap >= 0) * ON_SWAP
        # Every distinct held frame id (sorted) and how many references
        # it has: page-table mappings plus file page caches.
        held = frame[populated]
        if kernel.files:
            cached = chain.from_iterable(file.cache.values() for file in kernel.files)
            held = np.concatenate([held, np.fromiter(cached, np.int64)])
        self.holders: tuple[np.ndarray, np.ndarray] = np.unique(held, return_counts=True)
        # The kernel's refcount table as ``(frame ids, counts)``, and
        # ``recorded = (refcount, held)``: each held frame's refcount in
        # the table (1 when it has no entry), and whether each table
        # entry names a frame that something holds.
        table = kernel.frame_refs
        ref_frames = np.fromiter(table.keys(), np.int64, len(table))
        ref_counts = np.fromiter(table.values(), np.int64, len(table))
        self.refs = (ref_frames, ref_counts)
        frames, counts = self.holders
        refcount = np.ones_like(counts)
        named = np.ones(0, dtype=bool)
        if table:  # an empty table (no fork, no shared file page) is common
            at = frames.searchsorted(ref_frames)
            named = np.append(frames, -1)[at] == ref_frames
            refcount[at[named]] = ref_counts[named]
        self.recorded = (refcount, named)

    # ------------------------------------------------------------ segments --
    def offenders(self, mask: np.ndarray) -> list[int]:
        """Segments holding a page where the per-page ``mask`` is set."""
        pages = np.flatnonzero(mask)
        return np.unique(np.searchsorted(self.offsets, pages, side="right") - 1).tolist()

    def name(self, seg: int) -> str:
        """``proc:vma`` label of segment ``seg`` for messages."""
        proc, vma = self.segments[seg]
        return f"{proc.name}:{vma.name or hex(vma.start)}"

    def pages(self, seg: int) -> slice:
        """The view's index range of segment ``seg``."""
        return slice(self.offsets[seg], self.offsets[seg + 1])

    def process_bounds(self) -> list[int]:
        """The view's first page of each process in ``kernel.processes``
        (walk order), then its page count: process ``i`` holds pages
        ``bounds[i]`` to ``bounds[i + 1]``."""
        return [self.offsets[first] for first in self._firsts]

    # ------------------------------------------------------------ page data --
    @cached_property
    def private(self) -> np.ndarray:
        """Pages of private (not ``MAP_SHARED``) VMAs."""
        shared = np.array([vma.shared for _proc, vma in self.segments], dtype=bool)
        return ~shared.repeat(self.sizes)

    @cached_property
    def page_refs(self) -> np.ndarray:
        """Each page's frame refcount as :attr:`recorded` has it (0
        where no frame is attached)."""
        populated = self.populated
        refs = np.zeros(self.frame.size, dtype=np.int64)
        refs[populated] = self.recorded[0][self.holders[0].searchsorted(self.frame[populated])]
        return refs

    def page_codes(self) -> np.ndarray:
        """Each page's code for the state diff: :attr:`pte` without
        :data:`POPULATED`, node + 1 (the node cache) and the frame's
        recorded refcount, both 0 where no frame is attached.
        :func:`page_tuple` decodes one."""
        node = (self.node.astype(np.int64) + 1) * self.populated
        return (self.pte & ~POPULATED) | node << NODE_SHIFT | self.page_refs << REFS_SHIFT


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


#: Per-page rules over ``pte & 31`` (P, W, NT, populated, on swap):
#: ``(text, fails(p, w, nt, populated, on_swap))``. The last is
#: reported after the node-cache rules.
_PTE_RULES = (
    ("PRESENT page without a frame", lambda p, w, nt, pop, swp: p and not pop),
    ("WRITE bit without PRESENT", lambda p, w, nt, pop, swp: w and not p),
    ("NEXTTOUCH page still PRESENT", lambda p, w, nt, pop, swp: nt and p),
    ("NEXTTOUCH page without a frame", lambda p, w, nt, pop, swp: nt and not pop),
    ("page both populated and on swap", lambda p, w, nt, pop, swp: pop and swp),
)
#: ``pte & 31`` -> bit ``i`` set where rule ``i`` fails: one lookup
#: screens all five.
_PTE_FAULTS = np.array(
    [
        sum(1 << i for i, (_text, fails) in enumerate(_PTE_RULES) if fails(*(c >> b & 1 for b in range(5))))
        for c in range(32)
    ],
    dtype=np.uint8,
)


# ------------------------------------------------------------------ checkers --
@_invariant
def vma_layout(view: KernelView) -> list[str]:
    """VMA lists sorted, non-overlapping, aligned and index-synced."""
    problems: list[str] = []
    for proc, first, last in zip(view.kernel.processes, view._firsts, view._firsts[1:]):
        vmas = [vma for _proc, vma in view.segments[first:last]]
        starts = view.starts[first:last]
        sizes = view.sizes[first:last]
        ends = [start + (n << PAGE_SHIFT) for start, n in zip(starts, sizes)]
        for a, b, end, a_start, b_start in zip(vmas, vmas[1:], ends, starts, starts[1:]):
            if end > b_start:
                problems.append(f"{proc.name}: overlapping VMAs {a!r} / {b!r}")
            if a_start >= b_start:
                problems.append(f"{proc.name}: VMA list not sorted at {a!r}")
        if proc.addr_space._starts != starts:
            problems.append(f"{proc.name}: starts index out of sync with VMA list")
        for vma, start, n in zip(vmas, starts, sizes):
            if start % PAGE_SIZE:
                problems.append(f"{proc.name}: misaligned VMA start 0x{start:x}")
            if n < 1:
                problems.append(f"{proc.name}: empty VMA {vma!r}")
    for seg in view.missized:
        (proc, vma), n = view.segments[seg], view.sizes[seg]
        problems += [
            f"{proc.name}: {column} column size mismatch in {vma!r}"
            for column in ("node", "flags", "swap")
            if getattr(vma.pt, column).size != n
        ]
    return problems


@_invariant
def pte_consistency(view: KernelView) -> list[str]:
    """PTE flag algebra, node cache, and no-freed-frame references."""
    allocators = view.kernel.allocators
    frame, node = view.frame, view.node
    faults = _PTE_FAULTS[view.pte & 31]
    owners = node_of_frame(frame)  # -1 where no frame, like an unset node cache
    stale = node != owners
    # Each node's held frames are one slice of the sorted holders; a
    # frame past the last slice has no node.
    frames = view.holders[0]
    bases = [alloc._base for alloc in allocators]
    bounds = frames.searchsorted([*bases, len(allocators) << NODE_STRIDE_SHIFT]).tolist()
    problems: list[str] = []
    if faults.any() or stale.any() or bounds[-1] < frames.size:
        populated = view.populated
        rules = [(faults & (1 << i), text) for i, (text, _fails) in enumerate(_PTE_RULES)]
        problems = _blame(view, [
            *rules[:4],
            (populated & (node < 0), "frame attached but node cache unset"),
            (~populated & stale, "node cache set without a frame"),
            (populated & stale, "node cache disagrees with frame's owning node"),
            (owners >= len(allocators), "frame id outside any node's range"),
            rules[4],
        ])
    # No PTE maps a freed frame: each node's slice is looked up in that
    # node's own bitmap; a bad frame only a page cache holds names no
    # VMA (node_accounting's job).
    for alloc, lo, hi in zip(allocators, bounds, bounds[1:]):
        if lo == hi:
            continue
        local = frames[lo:hi] - alloc._base
        # The bitmap ends at or past the bump pointer: an index beyond
        # its end was never handed out, so it counts as freed. Sorted,
        # the last index is the largest.
        if local[-1] < alloc._allocated.size and alloc._allocated[local].all():
            continue
        if local[-1] >= alloc.capacity:
            problems += _blame(view, [(
                np.isin(frame, frames[lo:hi][local >= alloc.capacity]),
                f"frame beyond node {alloc.node_id} capacity",
            )])
            local = local[local < alloc.capacity]
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
    if not (wrong.any() or low.any() or not held.all()):
        return []
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
    held = np.bincount(node_of_frame(view.holders[0]), minlength=len(allocators)).tolist()
    for alloc, distinct in zip(allocators, held):
        used = alloc.used
        delta = alloc.total_allocs - alloc.total_frees
        bitmap = int(np.count_nonzero(alloc._allocated))
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
    pte = view.pte
    problems = []
    # Only a frame whose recorded refcount exceeds 1 is shared.
    if (view.recorded[0] > 1).any():
        writable = (pte & (PTE_WRITE | POPULATED)) == PTE_WRITE | POPULATED
        shared = writable & (view.page_refs > 1)
        if shared.any():
            shared &= view.private
            for seg in view.offenders(shared):
                pages = view.pages(seg)
                bad = sorted(view.frame[pages][shared[pages]][:4].tolist())
                problems.append(f"{view.name(seg)}: WRITE bit on shared frame(s) {bad}")
    cowless = (pte & (PTE_COW | POPULATED)) == PTE_COW
    if cowless.any():
        problems += _blame(view, [
            (cowless & view.private, "COW flag on a page without a frame"),
        ])
    return problems


@_invariant
def numastat_balance(view: KernelView) -> list[str]:
    """``numastat`` rows non-negative; misses balance foreigns; hits
    plus misses count every first-touched page."""
    stat = view.kernel.numastat
    problems = [
        f"numastat row {row} went negative: {values}"
        for row, values in stat.as_table().items()
        if values and min(values) < 0
    ]
    if sum(stat.numa_miss) != sum(stat.numa_foreign):
        problems.append(
            f"sum(numa_miss)={sum(stat.numa_miss)} != "
            f"sum(numa_foreign)={sum(stat.numa_foreign)}"
        )
    problems += [
        f"node {node}: interleave_hit {il} exceeds numa_hit {hit}"
        for node, (il, hit) in enumerate(zip(stat.interleave_hit, stat.numa_hit))
        if il > hit
    ]
    booked = sum(stat.numa_hit) + sum(stat.numa_miss)
    touched = view.kernel.stats.pages_first_touched
    if booked != touched:
        problems.append(
            f"numastat books {booked} first touch(es) but pages_first_touched={touched}"
        )
    return problems


@_invariant
def ledger_consistency(view: KernelView) -> list[str]:
    """Ledger totals/counts agree; kernel counters stay non-negative
    and the per-reason migration counts sum to ``pages_migrated``."""
    ledger = view.kernel.ledger
    stats = view.kernel.stats
    by_reason = sum(stats.migrations.values())
    # The counters stats.flat() names: its scalars and its dicts' values.
    counters = chain(
        attrgetter(*stats.SCALARS)(stats), *(getattr(stats, d).values() for d in stats.DICTS)
    )
    if (
        ledger.totals.keys() == ledger.counts.keys()
        and min(ledger.totals.values(), default=0.0) >= -1e-9
        and min(ledger.counts.values(), default=1) >= 1
        and min(counters) >= 0
        and by_reason == stats.pages_migrated
    ):
        return []
    problems: list[str] = []
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
    if by_reason != stats.pages_migrated:
        problems.append(
            f"migrations by reason sum to {by_reason} but pages_migrated={stats.pages_migrated}"
        )
    return problems


@_invariant
def swap_consistency(view: KernelView) -> list[str]:
    """Swap slots unique, only on frame-less pages, device count right."""
    device = view.kernel.swap
    on_swap = (view.pte & ON_SWAP) != 0
    if not on_swap.any():
        # No slot referenced: only the device can hold phantom slots.
        if device is not None and device.used != 0:
            return [
                f"swap device holds {device.used} slot(s) but page tables "
                f"reference 0 (leaked or phantom slots)"
            ]
        return []
    slots, counts = np.unique(view.swap[on_swap], return_counts=True)
    problems = []
    if counts.max() > 1:
        dup = counts > 1
        problems += [
            f"swap slot {slot} referenced by {count} pages"
            for slot, count in zip(slots[dup], counts[dup])
        ]
    if device is None:
        problems.append(f"{slots.size} swap slot(s) referenced but no device attached")
        return problems
    referenced = slots.tolist()
    unallocated = set(device._free).intersection(referenced)
    if referenced[-1] >= device._bump:  # sorted: the last is the largest
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
    kernel: Kernel,
    names: Optional[Iterable[str]] = None,
    *,
    view: Optional[KernelView] = None,
) -> list[Violation]:
    """Run invariant checkers over a kernel; returns all violations.

    ``names`` selects a subset (default: every registered invariant).
    Unknown names raise ``KeyError`` — a misspelled checker silently
    passing is exactly the failure mode this layer exists to prevent.
    Every selected checker reads the same :class:`KernelView`: ``view``
    when the caller built one of ``kernel`` (the differential harness
    reuses it for its state diff), else a fresh one.
    """
    selected = list(INVARIANTS) if names is None else list(names)
    checkers = [(name, INVARIANTS[name]) for name in selected]
    if view is None:
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
