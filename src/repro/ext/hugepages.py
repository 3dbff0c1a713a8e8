"""Huge-page (2 MiB) mappings and their migration — paper future work.

Section 6: "Huge pages are another feature that will have to be
studied since they are known to help performance by reducing the TLB
pressure, but LINUX does not currently support their migration."

This extension prototypes both halves:

* :func:`mmap_huge` / :func:`huge_fault_in` — 2 MiB-granular anonymous
  mappings: one fault populates 512 contiguous base frames on one node
  and costs a single fault, not 512 (the TLB-pressure win);
* :func:`huge_mark_next_touch` / :func:`huge_touch` — next-touch at
  huge granularity: marking is one PTE sweep, the next toucher
  migrates whole 2 MiB units (far fewer faults, bigger copies — the
  granularity trade-off the ablation benchmark quantifies);
* :func:`huge_migrate` — synchronous huge-page migration (what mainline
  Linux of the era could not do).

Huge regions use the ordinary :class:`~repro.kernel.vma.Vma`/page-table
state (512 base-page entries per huge page), so all introspection and
invariant checking keep working; only the fault/migration granularity
changes.
"""

from __future__ import annotations

import numpy as np

from ..errors import Errno, SyscallError
from ..kernel.core import Kernel
from ..kernel.pagetable import PTE_NEXTTOUCH
from ..kernel.vma import PROT_RW, Vma
from ..sched.thread import SimThread
from ..util.units import HUGE_PAGE_SIZE, PAGE_SIZE

__all__ = [
    "PAGES_PER_HUGE",
    "mmap_huge",
    "huge_fault_in",
    "huge_mark_next_touch",
    "huge_touch",
    "huge_migrate",
]

#: Base pages per huge page (2 MiB / 4 KiB).
PAGES_PER_HUGE: int = HUGE_PAGE_SIZE // PAGE_SIZE


def _check_huge(vma: Vma) -> None:
    if not vma.huge:
        raise SyscallError(Errno.EINVAL, "not a huge-page mapping")


def mmap_huge(thread: SimThread, nbytes: int, prot: int = PROT_RW, name: str = ""):
    """Create a huge-page-backed anonymous mapping; returns its address.

    ``nbytes`` is rounded up to a 2 MiB multiple.
    """
    huge_units = -(-nbytes // HUGE_PAGE_SIZE)
    addr = yield from thread.mmap(huge_units * HUGE_PAGE_SIZE, prot, name=name or "huge")
    vma = thread.process.addr_space.find_vma(addr)
    vma.huge = True
    return addr


def _huge_units(vma: Vma, addr: int, nbytes: int) -> np.ndarray:
    """Indices (in huge-page units) covered by a byte range."""
    first = vma.page_index(addr) // PAGES_PER_HUGE
    last = vma.page_index(addr + nbytes - 1) // PAGES_PER_HUGE
    return np.arange(first, last + 1, dtype=np.int64)


def huge_fault_in(thread: SimThread, addr: int, nbytes: int, node: int | None = None):
    """Populate huge units covering the range (one fault per 2 MiB).

    Each unit's 512 base frames come from one node (``node`` or the
    faulting thread's), booked in ``numastat`` as hits there. Returns
    the number of huge faults taken.
    """
    kernel: Kernel = thread.kernel
    vma = thread.process.addr_space.find_vma(addr)
    if vma is None:
        raise SyscallError(Errno.EFAULT, f"unmapped 0x{addr:x}")
    _check_huge(vma)
    target = thread.node if node is None else node
    kernel.machine.validate_node(target)
    faults = 0
    for unit in _huge_units(vma, addr, nbytes):
        lo = int(unit) * PAGES_PER_HUGE
        hi = min(lo + PAGES_PER_HUGE, vma.npages)
        if (vma.pt.frame[lo:hi] >= 0).all():
            continue
        frames = kernel.alloc_on(target, hi - lo)
        vma.pt.map_pages(
            slice(lo, hi), frames, np.full(hi - lo, target, dtype=np.int16), vma.allows(True)
        )
        kernel.book_first_touch(None, target, target, hi - lo)
        kernel.stats.minor_faults += 1
        kernel.stats.pages_first_touched += hi - lo
        yield kernel.charge("huge.fault", kernel.cost.huge_fault_us)
        faults += 1
    return faults


def huge_mark_next_touch(thread: SimThread, addr: int, nbytes: int):
    """Mark huge units migrate-on-next-touch (one flag per unit)."""
    kernel: Kernel = thread.kernel
    vma = thread.process.addr_space.find_vma(addr)
    if vma is None:
        raise SyscallError(Errno.EFAULT, f"unmapped 0x{addr:x}")
    _check_huge(vma)
    marked = 0
    for unit in _huge_units(vma, addr, nbytes):
        lo = int(unit) * PAGES_PER_HUGE
        hi = min(lo + PAGES_PER_HUGE, vma.npages)
        pages = int(vma.pt.mark_next_touch(slice(lo, hi)))
        kernel.stats.nexttouch_marks += pages
        marked += int(pages > 0)
    if marked:
        yield kernel.charge("madvise", kernel.cost.madvise_base_us + 0.2 * marked)
        yield kernel.tlb_shootdown(thread.process, thread.core, tag="madvise")
    return marked


def huge_touch(thread: SimThread, addr: int, nbytes: int):
    """Touch a huge region: marked units migrate whole to the toucher.

    Returns the number of huge units migrated.
    """
    kernel: Kernel = thread.kernel
    vma = thread.process.addr_space.find_vma(addr)
    if vma is None:
        raise SyscallError(Errno.EFAULT, f"unmapped 0x{addr:x}")
    _check_huge(vma)
    dest = thread.node
    migrated = 0
    for unit in _huge_units(vma, addr, nbytes):
        lo = int(unit) * PAGES_PER_HUGE
        hi = min(lo + PAGES_PER_HUGE, vma.npages)
        flagged = (vma.pt.flags[lo:hi] & PTE_NEXTTOUCH) != 0
        if not flagged.any():
            continue
        src = int(vma.pt.node[lo])
        if src == dest:
            vma.pt.clear_next_touch(slice(lo, hi), vma.allows(True))
            yield kernel.charge("nt.control", kernel.cost.huge_fault_us)
            continue
        old = vma.pt.frame[lo:hi].copy()
        fresh = kernel.alloc_on(dest, hi - lo)
        kernel.move_contents(old, fresh)
        vma.pt.frame[lo:hi] = fresh
        vma.pt.node[lo:hi] = dest
        vma.pt.clear_next_touch(slice(lo, hi), vma.allows(True))
        yield kernel.charge("nt.control", kernel.cost.huge_fault_us)
        yield kernel.copy_pages_event(src, dest, float((hi - lo) * PAGE_SIZE), thread.process)
        kernel.release_frames(old)
        kernel.stats.pages_migrated += hi - lo
        kernel.stats.record_migration("nexttouch", hi - lo)
        kernel.stats.nt_faults += 1
        migrated += 1
    return migrated


def huge_migrate(thread: SimThread, addr: int, nbytes: int, dest: int):
    """Synchronously migrate huge units — the capability 2.6-era Linux
    lacked. Returns huge units moved."""
    kernel: Kernel = thread.kernel
    vma = thread.process.addr_space.find_vma(addr)
    if vma is None:
        raise SyscallError(Errno.EFAULT, f"unmapped 0x{addr:x}")
    _check_huge(vma)
    kernel.machine.validate_node(dest)
    moved = 0
    yield kernel.charge("move_pages.base", kernel.cost.move_pages_base_us)
    for unit in _huge_units(vma, addr, nbytes):
        lo = int(unit) * PAGES_PER_HUGE
        hi = min(lo + PAGES_PER_HUGE, vma.npages)
        if not (vma.pt.frame[lo:hi] >= 0).any():
            continue
        src = int(vma.pt.node[lo])
        if src == dest:
            continue
        old = vma.pt.frame[lo:hi].copy()
        fresh = kernel.alloc_on(dest, hi - lo)
        kernel.move_contents(old, fresh)
        vma.pt.frame[lo:hi] = fresh
        vma.pt.node[lo:hi] = dest
        # One unmap + shootdown per 2 MiB instead of per 4 KiB.
        yield kernel.charge("move_pages.control", kernel.cost.move_pages_page_control_us)
        yield kernel.tlb_shootdown(thread.process, thread.core, tag="move_pages.control")
        yield kernel.copy_pages_event(src, dest, float((hi - lo) * PAGE_SIZE), thread.process)
        kernel.release_frames(old)
        kernel.stats.pages_migrated += hi - lo
        kernel.stats.record_migration("move_pages", hi - lo)
        moved += 1
    return moved
