"""Run-granular kernel operations — contiguous page runs as the
native unit of work.

The wall-clock fast paths introduced for demand-zero faults
(:func:`~repro.kernel.fault.demand_zero_run`) generalize: whenever the
:meth:`~repro.kernel.core.Kernel.turbo_ok` gate holds, a run of
back-to-back per-page kernel operations can be replayed inline —
page-table commits in bulk NumPy operations, clock and ledger advanced
with the exact float arithmetic of the per-page walk, lock statistics
booked without round-tripping the event engine — and completed with a
single ``timeout_at`` event.

This module hosts the run-ops shared by the hot paths:

* :func:`migrate_run` — the synchronous migration engine
  (``move_pages`` / ``migrate_pages`` / ``mbind(move=True)``), its
  pagevec chunks replayed in NumPy with no per-chunk engine events or
  Python loop;
* three ``batch=1`` fault storms by one thread, each a front end of
  one per-page loop (:func:`_replay_storm`) that it feeds with its
  page shapes: :func:`nt_fault_run` (migrate-on-next-touch, Figures 5
  and 7), :func:`cow_break_run` (copy-on-write breaks after ``fork``)
  and :func:`swap_in_run` (swap-in faults);
* :func:`charge_stages` — the ``fork``/``mprotect``/``madvise``
  tails' consecutive charges, one event per stage;
* :func:`replay_transfer` — an exact inline replay of an uncontended
  :class:`~repro.sim.resources.BandwidthResource` transfer (same float
  wake arithmetic, same byte counters), so run-ops can fold channel
  I/O into their virtual clock (:func:`migrate_run` replays the same
  wakes vectorized).

:func:`~repro.kernel.fault.demand_zero_run` and :func:`migrate_run`
fold every running sum — the clock, ledger totals, lock hold times,
channel counters — with a seeded ``np.cumsum``
(:func:`~repro.kernel.fault._fold_chains`), which adds strictly left to
right as the reference path does; ``docs/performance.md`` §4 lists the
rules such a replay keeps.

Every run-op is all-or-nothing: it either replays the whole run with
bit-identical simulated state, or returns ``None`` and the caller
falls back to the per-page reference path.  ``REPRO_SLOW_PATH=1`` /
``kernel.force_slow_path`` disable them wholesale (see
``docs/performance.md`` and ``tests/test_fastpath_equivalence.py``).
The four fault-storm run-ops (the three above and ``demand_zero_run``)
first pass one decline gate,
:func:`~repro.kernel.fault._storm_declines`.
"""

from __future__ import annotations

import math
from typing import Optional, TYPE_CHECKING

import numpy as np

from ..util.units import PAGE_SHIFT, PAGE_SIZE
from .core import Kernel
from .fault import _access_cost_us_single, _fold_chains, _pmd_locks, _storm_declines, _typed
from .pagetable import PTE_COW, PTE_PRESENT, PTE_WRITE
from .vma import Vma

if TYPE_CHECKING:  # pragma: no cover
    from ..sched.thread import SimThread
    from ..sim.resources import BandwidthResource

__all__ = [
    "charge_stages",
    "replay_transfer",
    "migrate_run",
    "nt_fault_run",
    "cow_break_run",
    "swap_in_run",
]


def charge_stages(kernel: Kernel, stages):
    """Yield the charges of ``stages``, one :meth:`Kernel.charge` each.

    ``stages`` is a sequence of ``(tag, duration)`` pairs; ``duration``
    may be a zero-argument callable, evaluated when its stage starts
    (so :meth:`Kernel.tlb_shootdown_cost` reads the running-core set
    after the previous stage's sleep, and bumps its stats then).
    """
    for tag, duration_us in stages:
        if callable(duration_us):
            duration_us = duration_us()
        yield kernel.charge(tag, duration_us)


def replay_transfer(
    channel: "BandwidthResource", nbytes: float, max_rate: Optional[float], t: float
) -> float:
    """Advance virtual time ``t`` across one uncontended transfer.

    Replays ``channel.transfer(nbytes, max_rate)`` against an idle
    channel without creating engine events: the same water-filled rate,
    the same residual-epsilon check, and the same completion-wake float
    rounding (``fl(fl(t + d) - t)`` is *not* ``d``), so the returned
    completion time and the channel's byte counters are bit-identical
    to the event-driven path.  Callers must hold the turbo gate and
    guarantee the channel has no active transfer.
    """
    total = float(nbytes)
    if total == 0:
        return t
    remaining = total
    rate = channel.capacity
    if max_rate is not None and max_rate < rate:
        rate = max_rate
    channel._last_update = t  # transfer()'s _advance with nothing active
    while True:
        channel._wake_generation += 1  # _reschedule entry
        eps = max(1e-9, 8.0 * math.ulp(t))
        if remaining / rate <= eps:
            # Residual: finishes *now* rather than scheduling a wake
            # that could not advance the float clock.
            channel.bytes_transferred += total
            channel._busy_integral += max(0.0, remaining)
            channel._wake_generation += 1  # recursive _reschedule
            channel._last_update = t
            return t
        t_new = t + remaining / rate  # the wake's firing instant
        dt = t_new - t  # float round-trip, not exactly remaining/rate
        moved = rate * dt
        remaining -= moved
        channel._busy_integral += moved
        channel._last_update = t_new
        t = t_new
        if remaining <= 1e-6:  # finished inside the wake's _advance
            channel.bytes_transferred += total
            channel._wake_generation += 1  # the wake's _reschedule
            return t
        # Not finished: loop top is the wake's _reschedule.


def _book_ptl_holds(ptl_locks, vma: Vma, idx: int, holds: list) -> None:
    """Book a scalar replay's per-page PTL ``holds`` (page order, the
    run starting at page ``idx``) on the locks :func:`_pmd_locks`
    returned: one acquisition per page, and each page's hold folded
    into its lock's running ``hold_time`` in page order. The slow path
    adds each hold to ``hold_time`` as the lock is released, and float
    addition is order-sensitive, so a lock's holds are never summed
    apart and added once."""
    first = ((vma.start >> PAGE_SHIFT) + idx) & 511  # page j is in pmd (first + j) >> 9
    for g, lock in enumerate(ptl_locks):
        lo = max(0, (g << 9) - first)
        hi = min(len(holds), ((g + 1) << 9) - first)
        stats = lock.stats
        hold = stats.hold_time
        for page_hold in holds[lo:hi]:
            hold = hold + page_hold
        stats.hold_time = hold
        stats.acquisitions += hi - lo


# --------------------------------------------------------------- migrate ---
def migrate_run(
    kernel: Kernel,
    thread: "SimThread",
    vma: Vma,
    idxs: np.ndarray,
    dest_node: int,
    *,
    control_us: float,
    tag: str,
):
    """Replay the whole pagevec-chunked migration of ``idxs`` inline.

    Mirrors :func:`~repro.kernel.migrate.migrate_vma_pages` chunk for
    chunk — rmap/LRU lock statistics, per-chunk control + shootdown
    ledger folds, per-source-node channel copies and putback — with a
    single completion event for the entire run.  Returns
    ``(moved, event)`` or ``None`` to fall back.  ``idxs`` must already
    be filtered to populated pages not on ``dest_node``.

    The replay is vectorized over a (chunk, source node) table: chunk
    c's clock steps are its control, TLB and alloc charges, one copy
    per source node and one putback per source node (0.0 where the
    chunk has no page on that node), so one seeded ``np.cumsum`` gives
    every instant, and every other running sum — ledger totals, lock
    hold times, channel counters — is a seeded cumsum over its terms in
    the per-chunk path's order (:func:`~repro.kernel.fault._fold_chains`).
    Each copy replays :func:`replay_transfer`: the clock moves by
    ``nbytes / rate``, and when the wake leaves more than 1e-6 bytes a
    second wake finishes the residual without moving the clock. A copy
    whose residual would move the clock declines the whole run before
    anything is committed.
    """
    if not kernel.turbo_ok():
        return None
    process = thread.process
    anon_vma = vma.anon_vma
    if anon_vma is not None and not anon_vma.can_acquire():
        return None
    pt = vma.pt
    all_src = pt.node[idxs]
    srcs = np.flatnonzero(np.bincount(all_src, minlength=kernel.machine.num_nodes))
    lru_locks = kernel.lru_locks
    if not all(lru_locks[node].can_acquire() for node in (dest_node, *srcs.tolist())):
        return None
    size = int(idxs.size)
    if kernel.allocators[dest_node].free < size:
        return None
    channel = kernel.migration_channel(process)
    if channel.active_transfers:
        return None
    cost = kernel.cost
    env = kernel.env
    led = kernel.ledger
    control_tag = f"{tag}.control"
    copy_tag = f"{tag}.copy"
    chunk_size = max(1, cost.migrate_pagevec)
    half_hold = cost.lru_lock_hold_us / 2
    rate = channel.capacity  # replay_transfer's rate for a capped copy
    if cost.kernel_page_copy_bw < rate:
        rate = cost.kernel_page_copy_bw
    # tlb_shootdown_cost's per-page expression; nothing can start or
    # stop a thread of this mm during the replay.
    others = len(process.running_cores_except(thread.core))
    tlb_us = cost.tlb_flush_local_us + cost.tlb_shootdown_per_cpu_us * others
    # --- the (chunk, source) page-count table, sources in ascending
    # node order as the per-chunk np.unique loop visits them.
    nchunks = -(-size // chunk_size)
    n_src = int(srcs.size)
    k = np.full(nchunks, chunk_size)
    k[-1] = size - chunk_size * (nchunks - 1)
    if n_src == 1:
        counts = k[:, None]
    else:
        num_nodes = kernel.machine.num_nodes
        cells = np.arange(size) // chunk_size * num_nodes + all_src
        counts = np.bincount(cells, minlength=nchunks * num_nodes).reshape(nchunks, -1)
        counts = counts[:, srcs]
    nbytes = counts * float(PAGE_SIZE)
    # --- the clock: per chunk, control, TLB, alloc, copies, putbacks.
    width = 3 + 2 * n_src
    copies = slice(3, 3 + n_src)
    putbacks = slice(3 + n_src, width)
    t_start = env.now
    clock = np.empty(nchunks * width + 1)
    clock[0] = t_start
    steps = clock[1:].reshape(nchunks, width)
    steps[:, 0] = control_us * k
    steps[:, 1] = tlb_us * k
    steps[:, 2] = half_hold * k
    steps[:, copies] = nbytes / rate
    steps[:, putbacks] = half_hold * counts
    # Per-step chains on the clock's (chunk, step) grid: the control
    # ledger total (control, TLB, alloc, putbacks), the channel's
    # bytes_transferred (each copy) and its _busy_integral (each copy's
    # wake, then its residual).
    grid = np.zeros((3, nchunks, width))
    grid[0, :, :3] = steps[:, :3]
    grid[0, :, putbacks] = steps[:, putbacks]
    grid[1, :, copies] = nbytes
    present = counts > 0
    np.cumsum(clock, out=clock)
    # The instants chunk c's step i starts and ends at.
    before = clock[:-1].reshape(nchunks, width)
    after = clock[1:].reshape(nchunks, width)
    moved = rate * (after[:, copies] - before[:, copies])
    left = nbytes - moved
    second = present & (left > 1e-6)
    # replay_transfer's premise, else decline before committing: every
    # copy's first wake is a real one (no copy is shorter than one page,
    # and the time epsilon only grows with the clock), and a second wake
    # only finishes a residual, which cannot move the clock.
    if PAGE_SIZE / rate <= max(1e-9, 8.0 * math.ulp(clock[-1])):
        return None
    if second.any() and np.any(
        left[second] / rate > np.maximum(1e-9, 8.0 * np.spacing(after[:, copies][second]))
    ):
        return None
    grid[2, :, 3::2] = moved
    grid[2, :, 4::2] = np.where(second, left, 0.0)
    step_seeds = [
        led.totals.get(control_tag, 0.0),
        channel.bytes_transferred,
        channel._busy_integral,
    ]
    step_sums = _fold_chains(step_seeds, grid.reshape(3, -1))
    control = grid[0].copy() if led.sinks else None
    del grid
    # Per-chunk chains, each term the span from one of the chunk's
    # instants (``before``) to another (``after``): the copy ledger
    # total (the alloc's end to the last copy's end) and the hold times
    # of the dest LRU lock (the alloc), the anon_vma (control through
    # alloc) and each source LRU lock (its putback).
    hold_stats = [lru_locks[dest_node].stats]
    ends, starts = [2 + n_src, 2], [3, 2]
    if anon_vma is not None:
        hold_stats.append(anon_vma.stats)
        ends.append(2)
        starts.append(0)
    hold_stats += [lru_locks[node].stats for node in srcs.tolist()]
    ends += range(3 + n_src, width)
    starts += range(3 + n_src, width)
    chunk_seeds = [led.totals.get(copy_tag, 0.0), *(stats.hold_time for stats in hold_stats)]
    chunk_sums = _fold_chains(chunk_seeds, (after[:, ends] - before[:, starts]).T)
    # --- commit: the remap in two vectorized stores and one payload
    # move (frames are distinct within a VMA, so batching cannot
    # reorder anything observable), with every chunk's frames from one
    # allocator call that returns the per-chunk alloc_on sequence's ids.
    all_old = pt.frame[idxs]
    all_new = kernel.allocators[dest_node].alloc_chunked(size, chunk_size)
    kernel.move_contents(all_old, all_new)
    pt.frame[idxs] = all_new
    pt.node[idxs] = dest_node
    kstats = kernel.stats
    kstats.tlb_shootdowns += size
    kstats.tlb_ipis += size * others
    kstats.tlb_local_flushes += size
    kstats.pages_migrated += size
    # One op per pagevec chunk, as the per-chunk path books them.
    kstats.record_run("migrate", size, ops=nchunks)
    kstats.record_migration(tag, size)
    # The frees the per-chunk putback would have done, in the same
    # per-allocator append order (index order within each source node).
    kernel.release_frames(all_old)
    # Write back every chain. Python arithmetic keeps a sum a float
    # unless an operand is an np.float64: the clock's own type, and each
    # seed's.
    clock_np = isinstance(t_start, np.float64)
    n_pairs = int(np.count_nonzero(present))
    led.totals[control_tag] = _typed(step_sums[0], isinstance(step_seeds[0], np.float64))
    led.counts[control_tag] += 3 * nchunks + n_pairs
    channel.bytes_transferred = _typed(step_sums[1], isinstance(step_seeds[1], np.float64))
    channel._busy_integral = _typed(
        step_sums[2], clock_np or isinstance(step_seeds[2], np.float64)
    )
    channel._wake_generation += 2 * n_pairs + int(np.count_nonzero(second))
    channel._last_update = _typed(after[-1, 2 + n_src], clock_np)
    copy_np = clock_np or isinstance(chunk_seeds[0], np.float64)
    led.totals[copy_tag] = _typed(chunk_sums[0], copy_np)
    led.counts[copy_tag] += nchunks
    acquisitions = [nchunks] * (len(hold_stats) - n_src) + present.sum(axis=0).tolist()
    for stats, total, acquired in zip(hold_stats, chunk_sums[1:], acquisitions):
        stats.acquisitions += acquired
        stats.hold_time = _typed(total, clock_np or isinstance(stats.hold_time, np.float64))
    if led.sinks:
        _emit_migrate(led, control_tag, copy_tag, control, before, after, counts, clock_np)
    return size, env.timeout_at(_typed(clock[-1], clock_np))


def _emit_migrate(led, control_tag, copy_tag, control, before, after, counts, clock_np):
    """Hand :func:`migrate_run`'s charges to the ledger sinks as one
    batch in the per-chunk path's order, each at its per-chunk instant:
    control, TLB and alloc at their starts, the copy at its end, then
    each source's putback at its start. ``control`` holds the control
    charges on the clock's (chunk, step) grid; instants and copy
    durations are np.float64 scalars if ``clock_np``, else floats."""
    width = control.shape[1]
    n_src = (width - 3) // 2
    scalars = list if clock_np else np.ndarray.tolist
    copy_end = after[:, 2 + n_src]
    at = scalars(before.ravel())
    ends = scalars(copy_end)
    copy_us = scalars(copy_end - after[:, 2])
    charge_us = control.ravel().tolist()
    starts, durations, tags = [], [], []
    for c, row in enumerate(counts.tolist()):
        b = c * width
        starts += (at[b], at[b + 1], at[b + 2], ends[c])
        durations += (charge_us[b], charge_us[b + 1], charge_us[b + 2], copy_us[c])
        tags += (control_tag, control_tag, control_tag, copy_tag)
        for j, count in enumerate(row):
            if count:
                p = b + 3 + n_src + j
                starts.append(at[p])
                durations.append(charge_us[p])
                tags.append(control_tag)
    led.emit_batch(starts, durations, tags)


# ----------------------------------------------------------- fault storms ---
def _replay_storm(kernel: Kernel, vma: Vma, idx: int, ptl_locks, shapes, kinds, acc, tag):
    """Replay a ``batch=1`` fault storm's clock, ledger, sink and PTL
    chains in per-page float order; return the storm's end instant.

    Page ``idx + j`` pays fault entry, takes its split PTL, then pays
    its shape ``shapes[kinds[j]]``. A shape is ``(locked, copy,
    unlocked)``: ``locked`` are the ``(tag, us)`` charges under the
    PTL; ``copy`` is a ``(tag, channel, nbytes, rate)`` copy that ends
    the hold, replayed with :func:`replay_transfer` (``channel`` None:
    a same-node copy of ``nbytes / rate``), or None; ``unlocked`` are
    the charges after the PTL drops. Every page but the last then pays
    its access charge ``acc[j]`` under ``tag`` if it is positive; the
    last page's access merges with the valid run that follows.

    Each ledger tag keeps one running total, seeded from the ledger
    and added to in page order, and only the tags the storm booked are
    written back. Each shape's charges are resolved to their totals'
    slots once per call. Sinks get every charge at the instant the
    reference path books it: a prospective charge at its start, a copy
    at its end, all in one batch once the totals are written back.
    """
    led = kernel.ledger
    sinks = led.sinks
    batch = []  # the sinks' (start, duration, tag) triples, in order
    emit = batch.append
    slot = {"fault.entry": 0}
    acc_slot = slot.setdefault(tag, len(slot))

    def resolve(charges):
        return tuple((slot.setdefault(name, len(slot)), us, name) for name, us in charges)

    plan = []
    for locked, copy, unlocked in shapes:
        if copy is not None:
            name, channel, nbytes, rate = copy
            copy = (slot.setdefault(name, len(slot)), name, channel, nbytes, rate)
        plan.append((resolve(locked), copy, resolve(unlocked)))
    totals = led.totals
    tot = [totals.get(name, 0.0) for name in slot]
    entry_us = kernel.cost.fault_entry_us
    n_acc = 0
    holds = []  # per-page PTL hold, from the entry's end to the copy's
    t = kernel.env.now
    for kind, acc_us in zip(kinds, [*acc[:-1], 0.0]):
        locked, copy, unlocked = plan[kind]
        if sinks:
            emit((t, entry_us, "fault.entry"))
        t = t + entry_us
        tot[0] = tot[0] + entry_us
        since = t
        for i, us, name in locked:
            if sinks:
                emit((t, us, name))
            t = t + us
            tot[i] = tot[i] + us
        if copy is not None:
            i, name, channel, nbytes, rate = copy
            t_copy = t
            if channel is None:
                t = t + nbytes / rate
            else:
                t = replay_transfer(channel, nbytes, rate, t)
            us = t - t_copy
            tot[i] = tot[i] + us
            if sinks:
                emit((t, us, name))
        holds.append(t - since)
        for i, us, name in unlocked:
            if sinks:
                emit((t, us, name))
            t = t + us
            tot[i] = tot[i] + us
        if acc_us > 0:
            if sinks:
                emit((t, acc_us, tag))
            t = t + acc_us
            tot[acc_slot] = tot[acc_slot] + acc_us
            n_acc += 1
    _book_ptl_holds(ptl_locks, vma, idx, holds)
    adds = [0] * len(slot)
    adds[0] = len(kinds)
    adds[acc_slot] += n_acc
    for kind, (locked, copy, unlocked) in enumerate(plan):
        pages = kinds.count(kind)
        for i, _us, _name in locked + unlocked:
            adds[i] += pages
        if copy is not None:
            adds[copy[0]] += pages
    counts = led.counts
    for name, i in slot.items():
        if adds[i]:
            totals[name] = tot[i]
            counts[name] += adds[i]
    if sinks:
        led.emit_batch(*zip(*batch))
    return t


def nt_fault_run(
    kernel: Kernel,
    thread: "SimThread",
    vma: Vma,
    idx: int,
    run: int,
    bytes_per_page: float,
    tag: str,
):
    """Replay ``run`` back-to-back migrate-on-next-touch faults inline.

    The ``batch=1`` next-touch storm of Figures 5 and 7: each page pays
    fault entry, takes mmap_sem and its split PTL, pays
    :func:`~repro.kernel.fault.nt_fault_batch`'s control and alloc
    charges, copies to the toucher's node through the process migration
    channel with the PTL held, pays the free and — for every page but
    the last — the interleaved access charge. The commit is bulk (one
    ``alloc_seq``, one remap, one ``release_frames``); the clock is
    :func:`_replay_storm` over one page shape. Returns ``(run - 1,
    event)`` like :func:`cow_break_run`, or ``None``.

    Besides the shared storm gate
    (:func:`~repro.kernel.fault._storm_declines`), declines before
    committing anything on a copy that partly runs without the PTL, a
    page already on the toucher's node or on a shared frame, a toucher
    node that cannot seat the whole run, a held or waited-on PTL, or a
    busy migration channel.
    """
    if _storm_declines(kernel, thread, run, tag):
        return None
    cost = kernel.cost
    if cost.nt_copy_locked_fraction != 1.0:
        return None
    process = thread.process
    pt = vma.pt
    span = slice(idx, idx + run)
    dest = kernel.machine.node_of_core(thread.core)
    if bool(np.any(pt.node[span] == dest)):
        return None  # nt_fault_batch's stay branch
    old_frames = pt.frame[span].copy()
    if kernel.frames_shared_mask(old_frames).any():
        return None
    allocator = kernel.allocators[dest]
    if allocator.free < run:
        return None  # the per-page path raises OutOfMemory mid-run
    ptl_locks = _pmd_locks(process, vma, idx, run)
    if ptl_locks is None:
        return None
    channel = kernel.migration_channel(process)  # a new one is idle
    if channel.active_transfers:
        return None
    # --- bulk commit: alloc_seq hands out the ids of the per-page
    # alloc_many(1) pops (old frames all go back to other nodes), and
    # release_frames appends to each source's free list in page order.
    new_frames = allocator.alloc_seq(run)
    kernel.move_contents(old_frames, new_frames)
    pt.frame[span] = new_frames
    pt.node[span] = dest
    pt.clear_next_touch(span, vma.allows(True))
    kernel.release_frames(old_frames)
    kstats = kernel.stats
    kstats.nt_faults += run
    kstats.record_run("nt_fault", run, ops=run)
    kstats.pages_migrated += run
    kstats.record_migration("nexttouch", run)
    process.mmap_sem.stats.acquisitions += run
    # nt_fault_batch's charges for k = 1 with the entry already paid.
    control_us = 1 * cost.nt_fault_control_us + 0 * cost.fault_entry_us
    nbytes = 1.0 * PAGE_SIZE * cost.nt_copy_locked_fraction
    shape = (
        (("nt.control", control_us), ("nt.alloc", cost.nt_pcp_alloc_us)),
        ("nt.copy", channel, nbytes, cost.kernel_page_copy_bw),
        (("nt.free", cost.nt_pcp_free_us),),
    )
    acc = 0.0
    if run > 1 and bytes_per_page > 0:
        acc = _access_cost_us_single(kernel, dest, dest, bytes_per_page)
    t = _replay_storm(kernel, vma, idx, ptl_locks, (shape,), [0] * run, [acc] * run, tag)
    return run - 1, kernel.env.timeout_at(t)


def cow_break_run(
    kernel: Kernel,
    thread: "SimThread",
    vma: Vma,
    idx: int,
    run: int,
    bytes_per_page: float,
    tag: str,
):
    """Replay ``run`` back-to-back copy-on-write break faults inline.

    The ``batch=1`` write storm after a ``fork``: each page pays fault
    entry, takes its split PTL, either re-arms the write bit (sole
    owner) or copies to the toucher's node (shared frame; a same-node
    copy or one through the process migration channel), and — for
    every page but the last — the interleaved access charge. The commit
    is bulk (the write bits, one ``alloc_seq``, one
    ``release_frames``); the clock is :func:`_replay_storm` over those
    three page shapes. Returns ``(run - 1, event)`` like
    :func:`demand_zero_run` (the last page's access merges with the
    following valid run), or ``None``.
    """
    if _storm_declines(kernel, thread, run, tag):
        return None
    process = thread.process
    pt = vma.pt
    span = slice(idx, idx + run)
    if np.unique(pt.frame[span]).size != run:
        return None  # aliased frames: per-page refcounts would drift
    shared = kernel.frames_shared_mask(pt.frame[span])
    n_shared = int(np.count_nonzero(shared))
    dest = kernel.machine.node_of_core(thread.core)
    allocator = kernel.allocators[dest]
    if n_shared and allocator.free < n_shared:
        return None
    remote = shared & (pt.node[span] != dest)
    channel = None
    if remote.any():
        # The per-page path routes a remote copy through the process
        # migration channel (creating it lazily).
        channel = kernel.migration_channel(process)
        if channel.active_transfers:
            return None
    ptl_locks = _pmd_locks(process, vma, idx, run)
    if ptl_locks is None:
        return None
    # Page shapes: 0 reuses the frame, 1 copies on the toucher's node,
    # 2 copies across nodes.
    kinds = (shared.astype(np.int64) + remote).tolist()
    nodes_after = np.where(shared, dest, pt.node[span]).tolist()
    # --- bulk commit: the write bits, then alloc_seq hands out the ids
    # of the per-page alloc_on(dest, 1) pops, and release_frames drops
    # the sibling-held references (a shared frame is never freed).
    pt.flags[span] = (pt.flags[span] & np.uint16(~PTE_COW & 0xFFFF)) | np.uint16(
        PTE_PRESENT | PTE_WRITE
    )
    if n_shared:
        copied = np.flatnonzero(shared) + idx
        old_frames = pt.frame[copied]
        new_frames = allocator.alloc_seq(n_shared)
        kernel.move_contents(old_frames, new_frames)  # shared: payloads copy
        pt.frame[copied] = new_frames
        pt.node[copied] = dest
        kernel.release_frames(old_frames)
    kstats = kernel.stats
    kstats.cow_faults += run
    kstats.cow_reused += run - n_shared
    kstats.cow_copied += n_shared
    kstats.record_run("cow_break", run, ops=run)
    process.mmap_sem.stats.acquisitions += run
    cost = kernel.cost
    ctrl_us = cost.nt_fault_control_us
    copy_bw = cost.kernel_page_copy_bw
    control = (("cow.control", ctrl_us),)
    shapes = (
        ((("cow.reuse", ctrl_us),), None, ()),
        (control, ("cow.copy", None, float(PAGE_SIZE), copy_bw), ()),
        (control, ("cow.copy", channel, float(PAGE_SIZE), copy_bw), ()),
    )
    acc = [0.0] * run
    if run > 1 and bytes_per_page > 0:
        acc_of = {
            n: _access_cost_us_single(kernel, dest, n, bytes_per_page) for n in set(nodes_after)
        }
        acc = [acc_of[n] for n in nodes_after]
    t = _replay_storm(kernel, vma, idx, ptl_locks, shapes, kinds, acc, tag)
    return run - 1, kernel.env.timeout_at(t)


def swap_in_run(
    kernel: Kernel,
    thread: "SimThread",
    vma: Vma,
    idx: int,
    run: int,
    bytes_per_page: float,
    tag: str,
):
    """Replay ``run`` back-to-back swap-in faults inline.

    Frames come in one :meth:`FrameAllocator.alloc_seq` batch, swap
    slots are freed in bulk, and the page table is committed with a
    single ``map_pages`` — while :func:`_replay_storm` replays each
    fault's entry charge, device read and PTL hold in per-page float
    order over one page shape. Returns ``(run - 1, event)`` or
    ``None``.
    """
    if _storm_declines(kernel, thread, run, tag):
        return None
    device = kernel.swap
    channel = device.channel
    if channel.active_transfers:
        return None
    dest = kernel.machine.node_of_core(thread.core)
    if kernel.allocators[dest].free < run:
        return None
    process = thread.process
    ptl_locks = _pmd_locks(process, vma, idx, run)
    if ptl_locks is None:
        return None
    # --- bulk commit ----------------------------------------------------
    pt = vma.pt
    span = slice(idx, idx + run)
    slots = pt.swap[span].copy()
    frames = kernel.allocators[dest].alloc_seq(run)
    if kernel.track_contents:
        for frame, slot in zip(frames, slots):
            data = device.slot_data.get(int(slot))
            if data is not None:
                kernel.page_data[int(frame)] = data
    pt.map_pages(span, frames, np.full(run, dest, dtype=np.int16), vma.allows(True))
    pt.set_swap(span, -1)
    device.free_slots(slots)
    device.pages_in += run
    kernel.stats.pages_swapped_in += run
    kernel.stats.record_run("swap_in", run, ops=run)
    process.mmap_sem.stats.acquisitions += run
    # swap_in_batch's charges for k = 1: the fault under the PTL, then
    # the device read with the op latency folded in as bytes.
    io_bytes = float(PAGE_SIZE) + device.op_latency_us * channel.capacity
    shape = (
        (("swap.in.fault", kernel.cost.fault_entry_us),),
        ("swap.in", channel, io_bytes, None),
        (),
    )
    acc = 0.0
    if run > 1 and bytes_per_page > 0:
        acc = _access_cost_us_single(kernel, dest, dest, bytes_per_page)
    t = _replay_storm(kernel, vma, idx, ptl_locks, (shape,), [0] * run, [acc] * run, tag)
    return run - 1, kernel.env.timeout_at(t)
