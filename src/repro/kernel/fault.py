"""Page-fault handling: demand-zero, kernel next-touch, SIGSEGV.

This module implements Figure 2 of the paper — the kernel-based
next-touch design — plus the ordinary Linux fault paths it coexists
with:

* **demand-zero (first-touch)**: an unpopulated page gets a frame on a
  node chosen by the effective memory policy (local node by default);
* **migrate-on-next-touch**: a PTE flagged by
  ``madvise(MADV_NEXTTOUCH)`` is migrated to the faulting thread's
  node inside the fault handler, copy-on-write style;
* **protection fault**: the VMA forbids the access; SIGSEGV is
  delivered to the user handler if one is installed (the user-space
  next-touch scheme of Figure 1 lives on this path), otherwise the
  access raises :class:`~repro.errors.SegmentationFault`.

All functions are generators driven from the faulting thread's
process; simulated time is charged through the kernel ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import OutOfMemory, SegmentationFault
from ..obs import tracepoints
from ..util.units import PAGE_SHIFT, PAGE_SIZE
from .core import SIGSEGV, Kernel
from .mempolicy import PolicyKind
from .pagetable import PTE_COW, PTE_NEXTTOUCH
from .vma import Vma

if TYPE_CHECKING:  # pragma: no cover
    from ..sched.thread import SimThread

__all__ = [
    "SigInfo",
    "handle_fault",
    "nt_fault_batch",
    "demand_zero_batch",
    "demand_zero_run",
    "deliver_signal",
]


@dataclass(frozen=True)
class SigInfo:
    """What a SIGSEGV handler learns about the fault (``siginfo_t``)."""

    signum: int
    addr: int
    write: bool
    core: int


def deliver_signal(kernel: Kernel, thread: "SimThread", siginfo: SigInfo):
    """Deliver a signal to the thread's process handler.

    Raises :class:`SegmentationFault` when no handler is installed or
    when the handler itself faults (double fault), matching the default
    disposition.
    """
    process = thread.process
    handler = process.signal_handlers.get(siginfo.signum)
    if handler is None or thread.in_signal_handler:
        reason = "fault inside signal handler" if thread.in_signal_handler else "no handler"
        raise SegmentationFault(siginfo.addr, siginfo.write, reason)
    kernel.stats.signals_delivered += 1
    yield kernel.charge("signal.delivery", kernel.cost.signal_delivery_us)
    thread.in_signal_handler = True
    try:
        yield from handler(thread, siginfo)
    finally:
        thread.in_signal_handler = False


def handle_fault(kernel: Kernel, thread: "SimThread", addr: int, write: bool):
    """Service one page fault at ``addr``.

    Returns after the fault is resolved (the caller retries the
    access); raises :class:`SegmentationFault` for unrecoverable
    accesses.
    """
    process = thread.process
    if tracepoints.active(kernel):
        tracepoints.emit(
            "fault:enter",
            kernel,
            pid=process.pid,
            tid=thread.tid,
            core=thread.core,
            addr=addr,
            write=write,
        )
    try:
        yield from _handle_fault_locked(kernel, thread, addr, write)
    finally:
        if tracepoints.active(kernel):
            tracepoints.emit("fault:exit", kernel, pid=process.pid, tid=thread.tid)


def _handle_fault_locked(kernel: Kernel, thread: "SimThread", addr: int, write: bool):
    """The body of :func:`handle_fault` (split so the ``fault:enter`` /
    ``fault:exit`` tracepoints pair even when the fault escalates)."""
    process = thread.process
    yield kernel.charge("fault.entry", kernel.cost.fault_entry_us)
    yield process.mmap_sem.acquire_read()
    try:
        resolved = process.addr_space.resolve(addr)
        if resolved is None or not resolved[0].allows(write):
            kernel.stats.prot_faults += 1
            # Release mmap_sem before running user code, as the kernel
            # does before delivering the signal.
            process.mmap_sem.release_read()
            try:
                yield from deliver_signal(
                    kernel, thread, SigInfo(SIGSEGV, addr, write, thread.core)
                )
            finally:
                yield process.mmap_sem.acquire_read()
            return
        vma, idx = resolved
        flags = int(vma.pt.flags[idx])
        if flags & PTE_NEXTTOUCH:
            yield from nt_fault_batch(kernel, thread, vma, np.asarray([idx]), entry_charged=True)
        elif vma.pt.swap[idx] >= 0:
            from .swap import swap_in_batch

            yield from swap_in_batch(kernel, thread, vma, np.asarray([idx]))
        elif vma.pt.frame[idx] < 0:
            if vma.file is not None:
                from .files import file_fault_batch

                yield from file_fault_batch(kernel, thread, vma, np.asarray([idx]))
            else:
                yield from _demand_zero(kernel, thread, vma, idx, write)
        elif write and (flags & PTE_COW):
            from .fork import cow_fault

            yield from cow_fault(kernel, thread, vma, idx)
        else:
            # Present-but-insufficient bits (e.g. stale after an
            # upgrade): fix them up under the PTL, cheaply.
            ptl = process.ptl(vma.start, idx)
            yield ptl.acquire()
            try:
                vma.pt.set_protection(
                    slice(idx, idx + 1),
                    readable=True,
                    writable=vma.allows(True),
                )
                yield kernel.charge("fault.spurious", kernel.cost.fault_entry_us / 2)
            finally:
                ptl.release()
    finally:
        process.mmap_sem.release_read()


def _demand_zero(kernel: Kernel, thread: "SimThread", vma: Vma, idx: int, write: bool):
    """First-touch allocation of one page (NUMA-aware, Section 2.2)."""
    process = thread.process
    ptl = process.ptl(vma.start, idx)
    yield ptl.acquire()
    try:
        if vma.pt.frame[idx] >= 0:  # raced with another faulter
            return
        yield kernel.charge("fault.anon", kernel.cost.anon_fault_us)
        intended, node = kernel.first_touch(process, vma, idx, thread.node)
        frames = kernel.alloc_on(node, 1)
        kernel.book_first_touch(process.policy_for(vma), intended, node)
        lru = kernel.lru_locks[node]
        yield lru.acquire()
        try:
            yield kernel.charge("fault.alloc", kernel.cost.lru_lock_hold_us / 2)
        finally:
            lru.release()
        vma.pt.map_pages(slice(idx, idx + 1), frames, np.asarray([node]), vma.allows(True))
        kernel.stats.minor_faults += 1
        kernel.stats.pages_first_touched += 1
        kernel.stats.record_run("demand_zero", 1)
        if tracepoints.active(kernel):
            tracepoints.emit(
                "fault:demand_zero", kernel, pid=process.pid, vma=vma.start, node=int(node), pages=1
            )
    finally:
        ptl.release()


def demand_zero_run(
    kernel: Kernel,
    thread: "SimThread",
    vma: Vma,
    idx: int,
    run: int,
    bytes_per_page: float,
    tag: str,
):
    """Turbo path: replay ``run`` back-to-back per-page demand-zero
    faults (plus the interleaved access charges) without stepping the
    event engine per page.

    Called from ``touch_range`` at ``batch=1`` on a run of unpopulated
    anonymous pages. Under the :meth:`~repro.kernel.core.Kernel.turbo_ok`
    gate nothing else can run between the per-page events, so every
    simulated quantity — clock, ledger totals and counts, lock stats,
    numastat, frame ids, page-table state — is reproduced with the
    exact float arithmetic of the per-page walk, collapsed into ONE
    engine event. The replay has no per-page Python loop: the clock is
    one ``np.cumsum`` over the interleaved per-page charges, and the
    ledger totals and the PTL and LRU hold times are seeded cumsums
    over the page-order terms (:func:`_fold_chains`). An attached
    ledger sink still gets each charge at its per-page instant.

    It replays only a run that :meth:`~repro.kernel.core.Kernel.first_touch`
    seats on one node, asked once the shared storm gate
    (:func:`_storm_declines`) passes; an interleaved range declines
    first, in O(1) (no workload first-touches one at ``batch=1``).

    All-or-nothing: returns ``(pages_advanced, event)``, or ``None`` to
    bail (caller falls back to :func:`handle_fault`). ``pages_advanced``
    is ``run - 1`` because the last faulted page's access charge merges
    with the valid run that follows it, exactly as the per-page walk
    does; the caller re-enters at that page.
    """
    if _storm_declines(kernel, thread, run, tag):
        return None
    process = thread.process
    policy = process.policy_for(vma)
    if policy.kind is PolicyKind.INTERLEAVE:
        return None
    # --- placement: every page shares the first one's candidates, so
    # the run stays on its node iff that node has a frame for each.
    try:
        intended, target = kernel.first_touch(process, vma, idx, thread.node)
    except OutOfMemory:
        return None
    if kernel.allocators[target].free < run:
        return None
    # --- lock pre-check: the per-pmd PTLs covering the run and the
    # target's LRU lock must be free with no parked waiters
    # (pre-existing waiters are possible even with an idle engine).
    ptl_locks = _pmd_locks(process, vma, idx, run)
    if ptl_locks is None:
        return None
    lru = kernel.lru_locks[target]
    if not lru.can_acquire():
        return None
    # --- commit: allocate, map and account everything in bulk.
    cost = kernel.cost
    env = kernel.env
    led = kernel.ledger
    frames = kernel.allocators[target].alloc_seq(run)
    kernel.book_first_touch(policy, intended, target, run)
    vma.pt.map_pages(
        slice(idx, idx + run), frames, np.full(run, target, dtype=np.int16), vma.allows(True)
    )
    kernel.stats.minor_faults += run
    kernel.stats.pages_first_touched += run
    # One op per replaced per-page fault, so the counters match the
    # slow storm this run commit stands in for.
    kernel.stats.record_run("demand_zero", run, ops=run)
    process.mmap_sem.stats.acquisitions += run
    # --- float replay: every chain below is a seeded np.cumsum (see
    # _fold_chains). Page j's clock steps are its entry, anon and alloc
    # charges and, for every page but the last, its access charge. The
    # PTL is held from the end of the entry charge to the end of the
    # alloc charge, the LRU lock across the alloc charge.
    entry_us = cost.fault_entry_us
    anon_us = cost.anon_fault_us
    alloc_us = cost.lru_lock_hold_us / 2
    last = run - 1
    # The access charge (_access_cost_us's np.float64). The per-page
    # walk books only a positive one; a 0.0 step leaves every chain
    # unchanged.
    acc = 0.0
    if last and bytes_per_page > 0:
        acc = _access_cost_us_single(kernel, thread.node, target, bytes_per_page)
    n_acc = last if acc > 0 else 0
    t_start = env.now
    clock = np.empty(4 * run + 1)
    clock[0] = t_start
    steps = clock[1:].reshape(run, 4)
    steps[:, 0] = entry_us
    steps[:, 1] = anon_us
    steps[:, 2] = alloc_us
    steps[:last, 3] = acc
    steps[last, 3] = 0.0
    # Python arithmetic turns the clock into an np.float64 at the first
    # access charge: pages from np_page on see np.float64 instants.
    np_page = 0 if isinstance(t_start, np.float64) else 1 if n_acc else run
    tags = ("fault.entry", "fault.anon", "fault.alloc", tag)
    seeds = [led.totals.get(name, 0.0) for name in tags]
    totals = _fold_chains(seeds, steps.T)
    np.cumsum(clock, out=clock)
    for i, name in enumerate(tags[:3]):
        led.totals[name] = _typed(totals[i], isinstance(seeds[i], np.float64))
        led.counts[name] += run
    if n_acc:
        led.totals[tag] = totals[3]
        led.counts[tag] += n_acc
    t1, t2, t3 = clock[1::4], clock[2::4], clock[3::4]
    # Split PTLs: one chain per pmd, page j at slot first + j of the
    # flattened pmd rows; the zero slots leave a chain unchanged.
    first = ((vma.start >> PAGE_SHIFT) + idx) & 511
    holds = np.zeros(len(ptl_locks) * 512)
    holds[first : first + run] = t3 - t1
    sums = _fold_chains([lock.stats.hold_time for lock in ptl_locks], holds.reshape(-1, 512))
    del holds
    for g, lock in enumerate(ptl_locks):
        stats = lock.stats
        lo = max(0, (g << 9) - first)
        hi = min(run, ((g + 1) << 9) - first)
        stats.acquisitions += hi - lo
        as_np = hi > np_page or isinstance(stats.hold_time, np.float64)
        stats.hold_time = _typed(sums[g], as_np)
    # The target's LRU lock: one chain over every page's alloc.
    stats = lru.stats
    (total,) = _fold_chains([stats.hold_time], (t3 - t2)[None, :])
    stats.acquisitions += run
    stats.hold_time = _typed(total, run > np_page or isinstance(stats.hold_time, np.float64))
    if led.sinks:
        # One batch in page order, each charge at its start on the
        # clock: entry, anon, alloc, then the access charge at the end
        # of the alloc, which the last page (or every page, with no
        # access charge) does not book.
        starts = clock[: 4 * np_page].tolist() + list(clock[4 * np_page : 4 * run])
        durations = [entry_us, anon_us, alloc_us, acc] * run
        names = list(tags) * run
        if n_acc:
            del starts[-1], durations[-1], names[-1]
        else:
            del starts[3::4], durations[3::4], names[3::4]
        led.emit_batch(starts, durations, names)
    return run - 1, env.timeout_at(_typed(clock[-1], np_page < run))


def _storm_declines(kernel: Kernel, thread: "SimThread", run: int, tag: str) -> bool:
    """The decline checks every fault-storm run-op shares, before its
    own: an empty run, a closed :meth:`~repro.kernel.core.Kernel.turbo_ok`
    gate, a ledger deferral that would route the access ``tag`` (the
    replays fold it straight into the totals), an attached access
    profiler (the per-page walk reports each page's access to it), or
    a writer holding or queued on mmap_sem."""
    if run < 1 or not kernel.turbo_ok() or kernel.ledger.defers(tag):
        return True
    if kernel.access_profiler is not None:
        return True
    return not thread.process.mmap_sem.can_acquire_read()


def _pmd_locks(process, vma: Vma, idx: int, run: int):
    """The split PTLs covering ``run`` pages from ``idx``, or ``None``
    if any is held or has parked waiters (the run-op must bail)."""
    q0 = (vma.start >> PAGE_SHIFT) + idx
    key0 = q0 >> 9
    locks = []
    for key in range(key0, ((q0 + run - 1) >> 9) + 1):
        page = idx if key == key0 else (key << 9) - (vma.start >> PAGE_SHIFT)
        lock = process.ptl(vma.start, page)
        if not lock.can_acquire():
            return None
        locks.append(lock)
    return locks


def _fold_chains(seeds, terms: np.ndarray) -> np.ndarray:
    """Running sums ``seeds[i] + terms[i, 0] + terms[i, 1] + ...``, one
    per row of ``terms``, each added strictly left to right.

    This is how the run-op replays fold a chain of per-page (or
    per-chunk) float additions into a clock, ledger total, lock hold
    time or channel counter without a Python loop: ``np.cumsum``
    (``np.add.accumulate``) adds left to right, exactly as a loop of
    ``+=`` does. ``np.sum``, ``np.add.reduce`` and ``np.add.reduceat``
    sum pairwise and round differently, so they never fold a chain.
    Seeding the row with the running value (rather than summing the
    terms from 0.0 and adding once) is what keeps the result
    bit-identical. A row padded with ``0.0`` keeps its sum
    (``x + 0.0 == x`` for every ``x`` but ``-0.0``).
    """
    lanes = np.empty((len(seeds), terms.shape[1] + 1))
    lanes[:, 0] = seeds
    lanes[:, 1:] = terms
    return np.cumsum(lanes, axis=1, out=lanes)[:, -1].copy()


def _typed(value: np.float64, as_np: bool) -> float:
    """A folded ``value`` as the type Python arithmetic would give the
    chain: ``np.float64`` once any of its operands was one, else a
    plain ``float``. The equivalence suite compares types too."""
    return value if as_np else float(value)


def _access_cost_us_single(
    kernel: Kernel, thread_node: int, node: int, bytes_per_page: float
) -> float:
    """Single-page access cost, via the same arithmetic as the valid-run
    charge in ``touch_range`` (one page on one node)."""
    from .access import _access_cost_us

    return _access_cost_us(
        kernel, thread_node, np.full(1, node, dtype=np.int16), bytes_per_page
    )


def demand_zero_batch(kernel: Kernel, thread: "SimThread", vma: Vma, idxs: np.ndarray):
    """First-touch a batch of unpopulated pages of one VMA.

    Equivalent to ``len(idxs)`` back-to-back demand-zero faults by one
    thread (same per-page costs and placement, one lock round-trip) —
    the fast path large workloads use to initialize gigabyte matrices
    without a Python-level loop per page. Every page is seated by
    :meth:`~repro.kernel.core.Kernel.first_touch` before any is
    committed, so a page it cannot seat raises :class:`OutOfMemory`
    with nothing allocated.
    """
    process = thread.process
    cost = kernel.cost
    ptl = process.ptl(vma.start, int(idxs[0]))
    yield ptl.acquire()
    try:
        # Atomic: filter + allocate + map in one step (see nt_fault_batch).
        idxs = idxs[vma.pt.frame[idxs] < 0]
        if idxs.size == 0:
            return
        k = int(idxs.size)
        intended, targets = kernel.first_touch(process, vma, idxs, thread.node)
        kernel.book_first_touch(process.policy_for(vma), intended, targets)
        writable = vma.allows(True)
        for node in np.unique(targets):
            sel = targets == node
            count = int(np.count_nonzero(sel))
            frames = kernel.alloc_on(int(node), count)
            vma.pt.map_pages(idxs[sel], frames, np.full(count, node, dtype=np.int16), writable)
            if tracepoints.active(kernel):
                tracepoints.emit(
                    "fault:demand_zero",
                    kernel,
                    pid=process.pid,
                    vma=vma.start,
                    node=int(node),
                    pages=count,
                )
        kernel.stats.minor_faults += k
        kernel.stats.pages_first_touched += k
        kernel.stats.record_run("demand_zero", k)
        yield kernel.charge("fault.entry", cost.fault_entry_us * k)
        yield kernel.charge("fault.anon", cost.anon_fault_us * k)
        yield kernel.charge("fault.alloc", cost.lru_lock_hold_us / 2 * k)
    finally:
        ptl.release()


def nt_fault_batch(
    kernel: Kernel, thread: "SimThread", vma: Vma, idxs: np.ndarray, *, entry_charged: bool = False
):
    """Migrate-on-next-touch for a batch of pages of one VMA.

    ``idxs`` must be sorted page indices the caller observed flagged
    NEXTTOUCH; the flag is re-checked under the page-table lock, so
    racing threads migrate each page exactly once. A batch of size one
    is the faithful per-fault path; larger batches model a thread
    touching pages back-to-back and are what keeps application-scale
    simulations tractable.

    The cost structure mirrors the paper's implementation (Section
    3.3, Figure 6b): per-page fault + control under the PTL, a page
    copy of which ``nt_copy_locked_fraction`` happens while the lock is
    held (as in the copy-on-write path the design was inspired by), and
    allocator work under the destination/source LRU locks.
    """
    process = thread.process
    dest = kernel.machine.node_of_core(thread.core)
    cost = kernel.cost
    ptl = process.ptl(vma.start, int(idxs[0]))
    yield ptl.acquire()
    try:
        # --- atomic section (no yields): re-check flags and commit the new
        # mapping in one step, so a racing faulter — even one serialized by
        # a different PTL when batches span pmd boundaries — can never
        # migrate the same page twice.
        still = (vma.pt.flags[idxs] & PTE_NEXTTOUCH) != 0
        idxs = idxs[still]
        if idxs.size == 0:
            return
        k = int(idxs.size)
        kernel.stats.nt_faults += k
        kernel.stats.record_run("nt_fault", k)
        src_nodes = vma.pt.node[idxs].copy()
        moving = src_nodes != dest
        stay_idxs = idxs[~moving]
        move_idxs = idxs[moving]
        # Pages already local: clear the flag and revalidate — no copy,
        # no useless migration (Section 3.4). Frames still shared (fork/
        # COW siblings) come back write-protected COW: the revalidation
        # must not skip the unsharing the first write owes.
        if stay_idxs.size:
            shared = kernel.frames_shared_mask(vma.pt.frame[stay_idxs])
            vma.pt.clear_next_touch(stay_idxs, vma.allows(True), cow=shared)
            if tracepoints.active(kernel):
                tracepoints.emit(
                    "fault:nt_stay",
                    kernel,
                    pid=process.pid,
                    vma=vma.start,
                    node=int(dest),
                    pages=int(stay_idxs.size),
                )
        move_srcs = src_nodes[moving]
        old_frames = vma.pt.frame[move_idxs].copy()
        if move_idxs.size:
            # Order-0 allocation goes through the per-cpu pageset fast
            # path: no zone lru_lock, unlike the synchronous migration
            # engine's isolate/putback dance.
            new_frames = kernel.alloc_on(dest, int(move_idxs.size))
            kernel.move_contents(old_frames, new_frames)
            vma.pt.frame[move_idxs] = new_frames
            vma.pt.node[move_idxs] = dest
            vma.pt.clear_next_touch(move_idxs, vma.allows(True))
            kernel.stats.pages_migrated += int(move_idxs.size)
            kernel.stats.record_migration("nexttouch", int(move_idxs.size))
            if tracepoints.active(kernel):
                tracepoints.emit(
                    "fault:nt_migrate",
                    kernel,
                    pid=process.pid,
                    vma=vma.start,
                    dest=int(dest),
                    pages=int(move_idxs.size),
                )
        # --- end of atomic section; now pay for it.
        # Each page in the batch is a distinct hardware fault; the
        # caller may have already paid the entry cost of the first one.
        entries = k - (1 if entry_charged else 0)
        control_us = k * cost.nt_fault_control_us + entries * cost.fault_entry_us
        t0 = kernel.env.now
        yield kernel.charge("nt.control", control_us)
        if tracepoints.active(kernel):
            tracepoints.emit(
                "migrate:phase_lookup",
                kernel,
                tag="nt",
                pid=process.pid,
                vma=vma.start,
                pages=k,
                dur_us=kernel.env.now - t0,
            )
        if move_idxs.size:
            t0 = kernel.env.now
            yield kernel.charge("nt.alloc", cost.nt_pcp_alloc_us * move_idxs.size)
            if tracepoints.active(kernel):
                tracepoints.emit(
                    "migrate:phase_alloc",
                    kernel,
                    tag="nt",
                    pid=process.pid,
                    vma=vma.start,
                    dest=int(dest),
                    pages=int(move_idxs.size),
                    dur_us=kernel.env.now - t0,
                )
        # A fraction of the copy holds the PTL (COW-style; 1.0 by
        # default — see CostModel.nt_copy_locked_fraction).
        if move_idxs.size and cost.nt_copy_locked_fraction > 0:
            t0 = kernel.env.now
            for src in np.unique(move_srcs):
                count = int(np.count_nonzero(move_srcs == src))
                nbytes = float(count) * PAGE_SIZE
                ts = kernel.env.now
                yield kernel.copy_pages_event(
                    int(src), dest, nbytes * cost.nt_copy_locked_fraction, process
                )
                if tracepoints.active(kernel):
                    tracepoints.emit(
                        "migrate:phase_copy",
                        kernel,
                        tag="nt",
                        pid=process.pid,
                        vma=vma.start,
                        src=int(src),
                        dest=int(dest),
                        pages=count,
                        dur_us=kernel.env.now - ts,
                    )
            kernel.ledger.add("nt.copy", kernel.env.now - t0)
    finally:
        ptl.release()
    if move_idxs.size:
        if cost.nt_copy_locked_fraction < 1.0:
            # Tail of the copy proceeds without the PTL.
            t0 = kernel.env.now
            for src in np.unique(move_srcs):
                count = int(np.count_nonzero(move_srcs == src))
                nbytes = float(count) * PAGE_SIZE
                ts = kernel.env.now
                yield kernel.copy_pages_event(
                    int(src), dest, nbytes * (1.0 - cost.nt_copy_locked_fraction), process
                )
                # pages=0: the locked half already booked this chunk's
                # page count — the flow matrix must not double-count.
                if tracepoints.active(kernel):
                    tracepoints.emit(
                        "migrate:phase_copy",
                        kernel,
                        tag="nt",
                        pid=process.pid,
                        vma=vma.start,
                        src=int(src),
                        dest=int(dest),
                        pages=0 if cost.nt_copy_locked_fraction > 0 else count,
                        dur_us=kernel.env.now - ts,
                    )
            kernel.ledger.add("nt.copy", kernel.env.now - t0)
        # Old frames go back through the per-cpu pageset free path.
        kernel.release_frames(old_frames)
        t0 = kernel.env.now
        yield kernel.charge("nt.free", cost.nt_pcp_free_us * old_frames.size)
        if tracepoints.active(kernel):
            tracepoints.emit(
                "migrate:phase_remap",
                kernel,
                tag="nt",
                pid=process.pid,
                vma=vma.start,
                pages=int(old_frames.size),
                dur_us=kernel.env.now - t0,
            )
