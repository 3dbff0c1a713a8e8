"""The synchronous page-migration engine.

This is the simulated counterpart of ``mm/migrate.c``'s
``unmap_and_move`` loop, shared by ``move_pages`` and
``migrate_pages``. Pages are processed in pagevec-sized chunks; for
each chunk the engine:

1. takes the VMA's ``anon_vma`` rmap lock and charges per-page control
   (rmap walk, PTE unmap, status bookkeeping),
2. performs the TLB shootdown over every CPU running the mm — still
   under the lock, which is why concurrent migrating threads interfere
   (Figure 7's sync curves),
3. allocates destination frames under the destination LRU lock,
4. copies the pages through the inter-node migration channel *outside*
   the rmap lock,
5. frees the old frames under their source LRU locks and commits the
   new mapping.

Pages already resident on their destination are filtered out before
any locking: migration never does useless work (Section 3.4).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..obs import tracepoints
from ..util.units import PAGE_SIZE
from .core import Kernel
from .runops import migrate_run
from .vma import Vma

if TYPE_CHECKING:  # pragma: no cover
    from ..sched.thread import SimThread

__all__ = ["migrate_vma_pages"]


def migrate_vma_pages(
    kernel: Kernel,
    thread: "SimThread",
    vma: Vma,
    idxs: np.ndarray,
    dest_node: int,
    *,
    control_us: float,
    tag: str,
):
    """Migrate populated pages ``idxs`` of ``vma`` to ``dest_node``.

    ``control_us`` is the per-page control cost (the caller — move_pages
    or migrate_pages — has different locking/locality profiles).
    Returns the number of pages actually moved.
    """
    idxs = np.asarray(idxs, dtype=np.int64)
    populated = vma.pt.frame[idxs] >= 0
    idxs = idxs[populated]
    idxs = idxs[vma.pt.node[idxs] != dest_node]
    if idxs.size == 0:
        return 0
    turbo = migrate_run(
        kernel, thread, vma, idxs, dest_node, control_us=control_us, tag=tag
    )
    if turbo is not None:
        moved, event = turbo
        yield event
        return moved
    moved = 0
    process = thread.process
    cost = kernel.cost
    chunk_size = max(1, cost.migrate_pagevec)
    anon_vma = vma.anon_vma
    for lo in range(0, idxs.size, chunk_size):
        chunk = idxs[lo : lo + chunk_size]
        k = int(chunk.size)
        if anon_vma is not None:
            yield anon_vma.acquire()
        try:
            # Atomic (no yields): re-filter pages a concurrent caller
            # already moved while we queued, allocate, and commit the
            # new mapping — so the same page can never migrate twice.
            still = (vma.pt.frame[chunk] >= 0) & (vma.pt.node[chunk] != dest_node)
            chunk = chunk[still]
            k = int(chunk.size)
            if k == 0:
                continue
            src_nodes = vma.pt.node[chunk].copy()
            old_frames = vma.pt.frame[chunk].copy()
            new_frames = kernel.alloc_on(dest_node, k)
            kernel.move_contents(old_frames, new_frames)
            vma.pt.frame[chunk] = new_frames
            vma.pt.node[chunk] = dest_node
            # --- end of atomic section; now pay for it.
            t0 = kernel.env.now
            yield kernel.charge(f"{tag}.control", control_us * k)
            # 2.6.27 migration flushes per page (no batching of the
            # unmap flushes): k shootdowns, each IPI-ing every other
            # CPU running this mm — the Figure 7 sync-scaling limiter.
            yield kernel.tlb_shootdown_batch(process, thread.core, k, tag=f"{tag}.control")
            if tracepoints.active(kernel):
                tracepoints.emit(
                    "migrate:phase_lookup",
                    kernel,
                    tag=tag,
                    pid=process.pid,
                    vma=vma.start,
                    pages=k,
                    dur_us=kernel.env.now - t0,
                )
            # The alloc span includes the lru_lock acquisition: waiting
            # for the destination zone lock is part of what the phase
            # costs, which is how the profiler makes Figure 7's
            # contention visible.
            t0 = kernel.env.now
            lru = kernel.lru_locks[dest_node]
            yield lru.acquire()
            try:
                yield kernel.charge(f"{tag}.control", cost.lru_lock_hold_us / 2 * k)
            finally:
                lru.release()
            if tracepoints.active(kernel):
                tracepoints.emit(
                    "migrate:phase_alloc",
                    kernel,
                    tag=tag,
                    pid=process.pid,
                    vma=vma.start,
                    dest=dest_node,
                    pages=k,
                    dur_us=kernel.env.now - t0,
                )
        finally:
            if anon_vma is not None:
                anon_vma.release()
        # Copy outside the rmap lock, grouped by source node.
        t0 = kernel.env.now
        for src in np.unique(src_nodes):
            count = int(np.count_nonzero(src_nodes == src))
            ts = kernel.env.now
            yield kernel.copy_pages_event(int(src), dest_node, float(count) * PAGE_SIZE, process)
            if tracepoints.active(kernel):
                tracepoints.emit(
                    "migrate:phase_copy",
                    kernel,
                    tag=tag,
                    pid=process.pid,
                    vma=vma.start,
                    src=int(src),
                    dest=dest_node,
                    pages=count,
                    dur_us=kernel.env.now - ts,
                )
        kernel.ledger.add(f"{tag}.copy", kernel.env.now - t0)
        # Put the old frames back.
        t0 = kernel.env.now
        for src in np.unique(src_nodes):
            lru = kernel.lru_locks[int(src)]
            yield lru.acquire()
            try:
                sel = src_nodes == src
                kernel.release_frames(old_frames[sel])
                yield kernel.charge(
                    f"{tag}.control", cost.lru_lock_hold_us / 2 * int(np.count_nonzero(sel))
                )
            finally:
                lru.release()
        if tracepoints.active(kernel):
            tracepoints.emit(
                "migrate:phase_remap",
                kernel,
                tag=tag,
                pid=process.pid,
                vma=vma.start,
                pages=k,
                dur_us=kernel.env.now - t0,
            )
        moved += k
        kernel.stats.pages_migrated += k
        kernel.stats.record_run("migrate", k)
        kernel.stats.record_migration(tag, k)
    return moved
