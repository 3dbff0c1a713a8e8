"""``fork`` with copy-on-write — the mechanism the paper's kernel
next-touch was "inspired by" (Section 3.3).

Forking clones the address space without copying data: every populated
private page loses its write bit in *both* processes and gains the COW
flag; the physical frame's reference count goes up. The first write on
either side faults, and the fault handler gives the writer a private
copy — allocated on the **writer's NUMA node**, which is itself a
small first-touch effect worth testing.

COW and next-touch compose: marking a COW page ``MADV_NEXTTOUCH`` and
touching it migrates-by-copy, leaving the sibling's mapping intact
(the reference count machinery in :meth:`Kernel.release_frames` /
:meth:`Kernel.move_contents` makes the bookkeeping uniform).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..obs import tracepoints
from ..sim.resources import Mutex
from ..util.units import PAGE_SIZE
from .core import Kernel, SimProcess
from .pagetable import PTE_COW, PTE_PRESENT, PTE_WRITE
from .runops import charge_stages
from .vma import Vma

if TYPE_CHECKING:  # pragma: no cover
    from ..sched.thread import SimThread

__all__ = ["sys_fork", "cow_fault"]


def sys_fork(kernel: Kernel, thread: "SimThread"):
    """Fork the calling process; returns the child :class:`SimProcess`.

    The child gets identical VMAs at identical addresses, backing files
    included. Private writable pages become COW in both processes;
    frames are shared and reference-counted. The parent's TLBs are
    flushed (write bits were just revoked).
    """
    parent = thread.process
    child = kernel.create_process(f"{parent.name}-child", parent.default_policy)
    yield parent.mmap_sem.acquire_write()
    try:
        copied_ptes = 0
        for vma in parent.addr_space.vmas:
            # The child shares everything but the rmap lock; memory
            # locks are not inherited, and swap linkage is not copied.
            clone = vma.like(vma.start, vma.pt.fork_copy())
            clone.anon_vma = Mutex(
                kernel.env,
                name=f"anon_vma:{child.name}:{vma.name or hex(vma.start)}",
                handoff_us=kernel.cost.lock_handoff_us,
            )
            clone.mlocked = False
            populated = vma.pt.frame >= 0
            if populated.any():
                kernel.ref_frames(vma.pt.frame[populated])
                if not vma.shared:
                    # Every populated private page shares its frame with
                    # the child now, so every one of them is COW — the
                    # read-only and next-touch-marked ones included (a
                    # later mprotect/revalidation must not hand out
                    # WRITE on the shared frame). Revoke write on both
                    # sides; the first write copies.
                    for table in (vma.pt, clone.pt):
                        table.flags[populated] &= np.uint16(~PTE_WRITE & 0xFFFF)
                        table.flags[populated] |= np.uint16(PTE_COW)
            copied_ptes += vma.npages
            child.addr_space._insert(clone)
        child.addr_space._next_addr = parent.addr_space._next_addr
        kernel.stats.forks += 1
        if tracepoints.active(kernel):
            tracepoints.emit(
                "fork:dup", kernel, pid=parent.pid, child=child.pid, ptes=copied_ptes
            )
        yield from charge_stages(
            kernel,
            (
                ("fork", kernel.cost.mmap_base_us * 4 + 0.02 * copied_ptes),
                ("fork", lambda: kernel.tlb_shootdown_cost(parent, thread.core, 1)),
            ),
        )
    finally:
        parent.mmap_sem.release_write()
    return child


def cow_fault(kernel: Kernel, thread: "SimThread", vma: Vma, idx: int):
    """Break copy-on-write for one page (the first write after fork).

    If the frame is still shared, the writer gets a private copy on its
    own node; if every other reference is already gone, the page is
    simply re-enabled for writing.
    """
    process = thread.process
    ptl = process.ptl(vma.start, idx)
    yield ptl.acquire()
    try:
        flags = int(vma.pt.flags[idx])
        if not (flags & PTE_COW):
            return  # raced: someone already broke it
        kernel.stats.cow_faults += 1
        kernel.stats.record_run("cow_break", 1)
        frame = int(vma.pt.frame[idx])
        if not kernel.frame_shared(frame):
            # Sole owner now: just re-arm the write bit.
            kernel.stats.cow_reused += 1
            vma.pt.flags[idx] = np.uint16(
                (flags & ~PTE_COW) | PTE_PRESENT | PTE_WRITE
            )
            if tracepoints.active(kernel):
                tracepoints.emit(
                    "cow:break",
                    kernel,
                    pid=process.pid,
                    vma=vma.start,
                    page=idx,
                    copied=False,
                    node=int(vma.pt.node[idx]),
                )
            yield kernel.charge("cow.reuse", kernel.cost.nt_fault_control_us)
            return
        src_node = int(vma.pt.node[idx])
        dest = kernel.machine.node_of_core(thread.core)
        kernel.stats.cow_copied += 1
        new_frame = int(kernel.alloc_on(dest, 1)[0])
        if kernel.track_contents:
            data = kernel.page_data.get(frame)
            if data is not None:
                kernel.page_data[new_frame] = data.copy()
        # Commit the private mapping, then pay for the copy.
        vma.pt.frame[idx] = new_frame
        vma.pt.node[idx] = dest
        vma.pt.flags[idx] = np.uint16((flags & ~PTE_COW) | PTE_PRESENT | PTE_WRITE)
        kernel.release_frames(np.asarray([frame]))
        if tracepoints.active(kernel):
            tracepoints.emit(
                "cow:break",
                kernel,
                pid=process.pid,
                vma=vma.start,
                page=idx,
                copied=True,
                node=dest,
            )
        yield kernel.charge("cow.control", kernel.cost.nt_fault_control_us)
        t0 = kernel.env.now
        yield kernel.copy_pages_event(src_node, dest, float(PAGE_SIZE), process)
        kernel.ledger.add("cow.copy", kernel.env.now - t0)
    finally:
        ptl.release()
