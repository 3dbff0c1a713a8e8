"""The simulated system-call layer.

Each ``sys_*`` function is a generator driven from the calling thread,
matching the corresponding Linux call's semantics (arguments, error
codes, per-page status reporting) and charging simulated time per the
cost model. This is where the paper's two protagonists live:

* :func:`sys_move_pages` — with both the historical **unpatched**
  implementation (per-page linear scan of the destination array,
  O(n²) total — the bug the paper diagnoses) and the **patched**
  linear one the authors merged into Linux 2.6.29;
* :func:`sys_madvise` with ``MADV_NEXTTOUCH`` — the paper's new
  madvise parameter marking pages migrate-on-next-touch (Section 3.3).
"""

from __future__ import annotations

import enum
from typing import Optional, Sequence, TYPE_CHECKING

import numpy as np

from ..errors import Errno, SyscallError
from ..obs import tracepoints
from ..util.units import PAGE_SHIFT, PAGE_SIZE
from .core import Kernel, SimProcess
from .mempolicy import MemPolicy, PolicyKind
from .migrate import migrate_vma_pages
from .runops import charge_stages

if TYPE_CHECKING:  # pragma: no cover
    from ..sched.thread import SimThread

__all__ = [
    "Madvise",
    "sys_mmap",
    "sys_munmap",
    "sys_mprotect",
    "sys_madvise",
    "sys_move_pages",
    "sys_migrate_pages",
    "sys_mbind",
    "sys_set_mempolicy",
    "sys_get_mempolicy",
]


class Madvise(enum.Enum):
    """``madvise`` advice values we model."""

    NORMAL = "normal"
    WILLNEED = "willneed"
    #: Zap the range: frames freed, contents lost. The paper's footnote
    #: explains why this is *not* a valid next-touch substitute.
    DONTNEED = "dontneed"
    #: The paper's new advice: migrate pages to the next toucher's node.
    NEXTTOUCH = "nexttouch"


# --------------------------------------------------------------- mappings ---
def sys_mmap(
    kernel: Kernel,
    thread: "SimThread",
    nbytes: int,
    prot: int,
    *,
    shared: bool = False,
    policy: Optional[MemPolicy] = None,
    name: str = "",
):
    """Create an anonymous mapping; returns its start address."""
    process = thread.process
    yield kernel.charge("syscall.mmap", kernel.cost.syscall_base_us + kernel.cost.mmap_base_us)
    yield process.mmap_sem.acquire_write()
    try:
        vma = process.addr_space.mmap(nbytes, prot, shared=shared, policy=policy, name=name)
    finally:
        process.mmap_sem.release_write()
    return vma.start


def sys_munmap(kernel: Kernel, thread: "SimThread", addr: int, nbytes: int):
    """Remove a mapping; frames are released. Returns pages freed."""
    process = thread.process
    yield kernel.charge("syscall.munmap", kernel.cost.syscall_base_us + kernel.cost.mmap_base_us)
    yield process.mmap_sem.acquire_write()
    try:
        freed = process.addr_space.munmap(addr, nbytes)
        if freed:
            yield kernel.tlb_shootdown(process, thread.core, tag="syscall.munmap")
    finally:
        process.mmap_sem.release_write()
    return freed


def sys_mprotect(
    kernel: Kernel, thread: "SimThread", addr: int, nbytes: int, prot: int, *, tag: str = "mprotect"
):
    """Change protection of a range (splitting VMAs as needed).

    ``tag`` lets the user-space next-touch library separate its *mark*
    and *restore* calls in the ledger (Figure 6a's breakdown).
    """
    process = thread.process
    cost = kernel.cost
    npages = (nbytes + PAGE_SIZE - 1) // PAGE_SIZE
    yield process.mmap_sem.acquire_write()
    try:
        changed = process.addr_space.apply_protection(addr, nbytes, prot)
        stages = [(tag, cost.mprotect_base_us + cost.mprotect_page_us * npages)]
        if changed:
            # Any PTE hardware-bit change must be visible machine-wide.
            stages.append(
                (tag, lambda: kernel.tlb_shootdown_cost(process, thread.core, 1))
            )
        yield from charge_stages(kernel, stages)
    finally:
        process.mmap_sem.release_write()


def sys_madvise(kernel: Kernel, thread: "SimThread", addr: int, nbytes: int, advice: Madvise):
    """Give advice about a range.

    ``Madvise.NEXTTOUCH`` implements the paper's kernel patch: populated
    pages of *private anonymous* VMAs get the NEXTTOUCH PTE flag and
    their valid bits cleared, so the next touching thread migrates them
    (shared/file mappings return ``EINVAL``, as in the paper — lifting
    that limit is its stated future work; see :mod:`repro.ext`).
    Returns the number of pages affected.
    """
    process = thread.process
    cost = kernel.cost
    yield process.mmap_sem.acquire_read()
    try:
        affected = 0
        if advice in (Madvise.NORMAL, Madvise.WILLNEED):
            yield kernel.charge("madvise", cost.madvise_base_us)
            return 0
        segments = list(process.addr_space.range_segments(addr, nbytes))
        if advice is Madvise.NEXTTOUCH:
            for vma, first, stop in segments:
                if (vma.shared and not kernel.shared_next_touch) or not vma.anonymous:
                    raise SyscallError(
                        Errno.EINVAL, "MADV_NEXTTOUCH supports private anonymous mappings only"
                    )
            for vma, first, stop in segments:
                affected += vma.pt.mark_next_touch(slice(first, stop))
            kernel.stats.nexttouch_marks += affected
            stages = [("madvise", cost.madvise_base_us + cost.madvise_page_us * affected)]
            if affected:
                # The unmap of valid PTEs must be flushed everywhere
                # before the marking is effective.
                stages.append(
                    ("madvise", lambda: kernel.tlb_shootdown_cost(process, thread.core, 1))
                )
            yield from charge_stages(kernel, stages)
        elif advice is Madvise.DONTNEED:
            for vma, first, stop in segments:
                frames, _nodes = vma.pt.unmap_pages(slice(first, stop))
                kernel.release_frames(frames)
                affected += int(frames.size)
            stages = [("madvise", cost.madvise_base_us + cost.madvise_page_us * affected)]
            if affected:
                stages.append(
                    ("madvise", lambda: kernel.tlb_shootdown_cost(process, thread.core, 1))
                )
            yield from charge_stages(kernel, stages)
        else:  # pragma: no cover - enum is exhaustive
            raise SyscallError(Errno.EINVAL, f"unknown advice {advice}")
    finally:
        process.mmap_sem.release_read()
    return affected


def sys_mlock(kernel: Kernel, thread: "SimThread", addr: int, nbytes: int, *, lock: bool = True):
    """``mlock``/``munlock``: pin (or unpin) a range against swap-out.

    Pages are also faulted in on mlock, as the real call guarantees.
    Returns the number of pages now resident.
    """
    process = thread.process
    yield kernel.charge("syscall.mlock", kernel.cost.syscall_base_us)
    yield process.mmap_sem.acquire_write()
    try:
        affected = process.addr_space._isolate(addr, nbytes)
        for vma in affected:
            vma.mlocked = lock
    finally:
        process.mmap_sem.release_write()
    resident = 0
    if lock:
        from .access import touch_range

        yield from touch_range(kernel, thread, addr, nbytes, write=False, bytes_per_page=0, batch=512)
        for vma, first, stop in process.addr_space.range_segments(addr, nbytes):
            resident += int(np.count_nonzero(vma.pt.frame[first:stop] >= 0))
    return resident


# ------------------------------------------------------------- move_pages ---
def sys_move_pages(
    kernel: Kernel,
    thread: "SimThread",
    pages: Sequence[int] | np.ndarray,
    nodes: Sequence[int] | np.ndarray | int,
    *,
    patched: bool = True,
    target: Optional[SimProcess] = None,
):
    """Move individual pages of a process to given nodes.

    ``pages`` are page-aligned virtual addresses; ``nodes`` is either a
    matching array of destination nodes or a scalar applied to all.
    ``target`` selects another process's address space, as the real
    call's ``pid`` argument does (an external balancer migrating a
    job's pages). Returns a status array: destination node on success
    (or if the page was already there), ``-ENOENT`` for pages without
    a frame, ``-EFAULT`` for unmapped addresses — exactly the real
    call's contract.

    ``patched=False`` selects the historical pre-2.6.29 implementation
    whose per-page linear lookup over the destination-node array made
    large requests quadratic (the paper's Figure 4 "no patch" curve);
    the scan is charged per page processed, so wall-clock stays linear
    while simulated time collapses just like the original did.
    """
    pages = np.asarray(pages, dtype=np.int64)
    n = int(pages.size)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if np.isscalar(nodes) or isinstance(nodes, (int, np.integer)):
        node_arr = np.full(n, int(nodes), dtype=np.int64)
    else:
        node_arr = np.asarray(nodes, dtype=np.int64)
        if node_arr.size != n:
            raise SyscallError(Errno.EINVAL, "pages/nodes length mismatch")
    if np.any((node_arr < 0) | (node_arr >= kernel.machine.num_nodes)):
        raise SyscallError(Errno.ENODEV, "destination node does not exist")
    if np.any(pages % PAGE_SIZE != 0):
        raise SyscallError(Errno.EINVAL, "page address not aligned")
    process = target if target is not None else thread.process
    cost = kernel.cost
    status = np.empty(n, dtype=np.int64)
    if tracepoints.active(kernel):
        tracepoints.emit(
            "move_pages:batch", kernel, pid=process.pid, pages=n, patched=bool(patched)
        )
    # Fixed overhead: syscall entry + argument copyin, then the
    # migrate_prep (lru_add_drain_all) which serializes callers.
    yield kernel.charge("move_pages.base", cost.move_pages_base_us - cost.migrate_prep_us)
    yield kernel.migrate_prep_lock.acquire()
    try:
        yield kernel.charge("move_pages.base", cost.migrate_prep_us)
    finally:
        kernel.migrate_prep_lock.release()
    yield process.mmap_sem.acquire_read()
    try:
        i = 0
        while i < n:
            resolved = process.addr_space.resolve(int(pages[i]))
            if resolved is None:
                status[i] = -int(Errno.EFAULT)
                i += 1
                continue
            vma, first_idx = resolved
            dest = int(node_arr[i])
            # Extend the run: consecutive array entries that fall in the
            # same VMA with the same destination. Contiguity forces
            # ascending addresses, so VMA membership reduces to a cap at
            # the VMA's end address and the scan vectorizes.
            max_run = min(n - i, (vma.end - int(pages[i])) >> PAGE_SHIFT)
            if max_run > 1:
                seg = slice(i + 1, i + max_run)
                ok = (node_arr[seg] == dest) & (
                    pages[seg]
                    == int(pages[i]) + (np.arange(1, max_run, dtype=np.int64) << PAGE_SHIFT)
                )
                bad = np.flatnonzero(~ok)
                j = i + (int(bad[0]) + 1 if bad.size else max_run)
            else:
                j = i + 1
            run = np.arange(first_idx, first_idx + (j - i), dtype=np.int64)
            if not patched:
                # Historic bug: resolving each page's target scans the
                # full destination array -> O(n) per page.
                t0 = kernel.env.now
                yield kernel.charge(
                    "move_pages.scan", (j - i) * n * cost.unpatched_scan_us_per_entry
                )
                if tracepoints.active(kernel):
                    tracepoints.emit(
                        "migrate:phase_lookup",
                        kernel,
                        tag="move_pages.scan",
                        pid=process.pid,
                        vma=vma.start,
                        pages=j - i,
                        dur_us=kernel.env.now - t0,
                    )
            populated = vma.pt.frame[run] >= 0
            status[i:j] = np.where(populated, dest, -int(Errno.ENOENT))
            movable = run[populated]
            if movable.size:
                yield from migrate_vma_pages(
                    kernel,
                    thread,
                    vma,
                    movable,
                    dest,
                    control_us=cost.move_pages_page_control_us,
                    tag="move_pages",
                )
            i = j
    finally:
        process.mmap_sem.release_read()
    return status


def sys_migrate_pages(
    kernel: Kernel,
    thread: "SimThread",
    target: SimProcess,
    from_nodes: Sequence[int],
    to_nodes: Sequence[int],
):
    """Move *all* pages of ``target`` from one node set to another.

    The whole virtual address space is traversed in order (hence the
    higher base cost but better per-page locality than ``move_pages`` —
    Figure 4). ``from_nodes[i]`` maps to ``to_nodes[i]``. Returns the
    number of pages that could not be moved.
    """
    if len(from_nodes) != len(to_nodes) or not from_nodes:
        raise SyscallError(Errno.EINVAL, "from/to node lists must match and be non-empty")
    for node in (*from_nodes, *to_nodes):
        if not (0 <= node < kernel.machine.num_nodes):
            raise SyscallError(Errno.ENODEV, f"node {node} does not exist")
    cost = kernel.cost
    yield kernel.charge("migrate_pages.base", cost.migrate_pages_base_us - cost.migrate_prep_us)
    yield kernel.migrate_prep_lock.acquire()
    try:
        yield kernel.charge("migrate_pages.base", cost.migrate_prep_us)
    finally:
        kernel.migrate_prep_lock.release()
    yield target.mmap_sem.acquire_read()
    failed = 0
    try:
        for vma in target.addr_space.vmas:
            for src, dst in zip(from_nodes, to_nodes):
                if src == dst:
                    continue
                idxs = np.nonzero(vma.pt.node == src)[0].astype(np.int64)
                if idxs.size == 0:
                    continue
                yield from migrate_vma_pages(
                    kernel,
                    thread,
                    vma,
                    idxs,
                    dst,
                    control_us=cost.migrate_pages_page_control_us,
                    tag="migrate_pages",
                )
    finally:
        target.mmap_sem.release_read()
    return failed


# ---------------------------------------------------------------- policies ---
def sys_mbind(
    kernel: Kernel,
    thread: "SimThread",
    addr: int,
    nbytes: int,
    policy: MemPolicy,
    *,
    move: bool = False,
):
    """Set the memory policy of an address range.

    ``move=True`` is ``MPOL_MF_MOVE``: populated pages off the node a
    first touch would now intend for them (:meth:`Kernel.intended_nodes`;
    DEFAULT defines none) migrate there. Returns the pages moved.
    """
    process = thread.process
    yield kernel.charge("syscall.mbind", kernel.cost.mempolicy_base_us)
    yield process.mmap_sem.acquire_write()
    try:
        process.addr_space.apply_policy(addr, nbytes, policy)
    finally:
        process.mmap_sem.release_write()
    if not move or policy.kind is PolicyKind.DEFAULT:
        return 0
    moved = 0
    yield process.mmap_sem.acquire_read()
    try:
        # The range's VMAs now: apply_policy may have re-merged them.
        for vma, first, stop in process.addr_space.range_segments(addr, nbytes):
            populated = first + np.flatnonzero(vma.pt.frame[first:stop] >= 0)
            if populated.size == 0:
                continue
            targets = kernel.intended_nodes(process, vma, populated, thread.node)
            mismatched = vma.pt.node[populated] != targets
            for dest in np.unique(targets[mismatched]):
                sel = mismatched & (targets == dest)
                moved += yield from migrate_vma_pages(
                    kernel,
                    thread,
                    vma,
                    populated[sel],
                    int(dest),
                    control_us=kernel.cost.move_pages_page_control_us,
                    tag="move_pages",
                )
    finally:
        process.mmap_sem.release_read()
    return moved


def sys_set_mempolicy(kernel: Kernel, thread: "SimThread", policy: MemPolicy):
    """Set the calling process's default memory policy."""
    yield kernel.charge("syscall.set_mempolicy", kernel.cost.mempolicy_base_us)
    thread.process.default_policy = policy


def sys_get_mempolicy(kernel: Kernel, thread: "SimThread", addr: Optional[int] = None):
    """Query policy state.

    With ``addr`` (the ``MPOL_F_NODE | MPOL_F_ADDR`` use): returns the
    node holding the page at ``addr``, or -1 if it has no frame yet.
    Without: returns the process default policy.
    """
    yield kernel.charge("syscall.get_mempolicy", kernel.cost.syscall_base_us)
    if addr is None:
        return thread.process.default_policy
    resolved = thread.process.addr_space.resolve(addr)
    if resolved is None:
        raise SyscallError(Errno.EFAULT, f"unmapped address 0x{addr:x}")
    vma, idx = resolved
    return int(vma.pt.node[idx])
