"""Process address spaces: the VMA tree and its state operations.

This module is *pure state* — mapping, splitting, merging, protection
and policy changes, frame release. It charges no simulated time and
takes no locks; the syscall layer (:mod:`repro.kernel.syscalls`) wraps
these operations with costs, TLB flushes and ``mmap_sem`` as the real
kernel does.
"""

from __future__ import annotations

import bisect
from typing import Iterator, Optional, TYPE_CHECKING

import numpy as np

from ..errors import Errno, SimulationError, SyscallError
from ..sim.resources import Mutex
from ..util.units import PAGE_SHIFT, PAGE_SIZE
from .mempolicy import MemPolicy
from .pagetable import PTE_NEXTTOUCH, PTE_PRESENT, PTE_WRITE
from .vma import PROT_READ, PROT_WRITE, Vma

if TYPE_CHECKING:  # pragma: no cover
    from .core import Kernel

__all__ = ["AddressSpace", "MMAP_BASE"]

#: Where the bump allocator starts handing out mapping addresses.
MMAP_BASE: int = 0x2000_0000_0000
#: Unmapped guard gap kept between separate mappings (catches overruns
#: and prevents accidental merges of unrelated buffers).
_GUARD_PAGES: int = 1


class AddressSpace:
    """One process's virtual address space."""

    def __init__(self, kernel: "Kernel", name: str = "") -> None:
        self.kernel = kernel
        self.name = name
        self._vmas: list[Vma] = []  # sorted by start, non-overlapping
        self._starts: list[int] = []  # parallel array for bisect
        self._next_addr = MMAP_BASE

    # ------------------------------------------------------------ lookup ----
    @property
    def vmas(self) -> tuple[Vma, ...]:
        """Snapshot of the VMA list in address order."""
        return tuple(self._vmas)

    def find_vma(self, addr: int) -> Optional[Vma]:
        """The VMA containing ``addr``, or None."""
        i = bisect.bisect_right(self._starts, addr) - 1
        if i >= 0 and self._vmas[i].contains(addr):
            return self._vmas[i]
        return None

    def resolve(self, addr: int) -> Optional[tuple[Vma, int]]:
        """``(vma, page_index)`` for ``addr``, or None if unmapped."""
        vma = self.find_vma(addr)
        if vma is None:
            return None
        return vma, vma.page_index(addr)

    def resident_pages(self) -> int:
        """Total pages with frames attached across all VMAs."""
        return sum(v.pt.resident_pages() for v in self._vmas)

    def node_histogram(self) -> np.ndarray:
        """Per-node resident-page counts (a ``numa_maps`` summary)."""
        hist = np.zeros(self.kernel.machine.num_nodes, dtype=np.int64)
        for vma in self._vmas:
            hist += vma.pt.node_histogram(self.kernel.machine.num_nodes)
        return hist

    # ------------------------------------------------------------- mmap -----
    def mmap(
        self,
        nbytes: int,
        prot: int,
        *,
        shared: bool = False,
        policy: Optional[MemPolicy] = None,
        name: str = "",
    ) -> Vma:
        """Create an anonymous mapping of ``nbytes`` (page-rounded).

        Returns the new VMA; its ``start`` is the user-visible address.
        """
        if nbytes <= 0:
            raise SyscallError(Errno.EINVAL, "mmap of non-positive length")
        npages = (nbytes + PAGE_SIZE - 1) >> PAGE_SHIFT
        addr = self._next_addr
        self._next_addr = addr + ((npages + _GUARD_PAGES) << PAGE_SHIFT)
        vma = Vma(
            addr,
            npages,
            prot,
            shared=shared,
            policy=policy,
            name=name,
            anon_vma=Mutex(
                self.kernel.env,
                name=f"anon_vma:{name or hex(addr)}",
                handoff_us=self.kernel.cost.lock_handoff_us,
            ),
        )
        self._insert(vma)
        return vma

    def munmap(self, addr: int, nbytes: int) -> int:
        """Unmap a range, releasing its frames. Returns pages freed."""
        affected = self._isolate(addr, nbytes)
        freed = 0
        for vma in affected:
            frames, _nodes = vma.pt.unmap_pages(slice(None))
            self.kernel.release_frames(frames)
            self.release_swap_slots(vma)
            freed += frames.size
            i = self._index_of(vma)
            del self._vmas[i]
            del self._starts[i]
        return freed

    def release_swap_slots(self, vma: Vma) -> int:
        """Return a dying VMA's swap slots to the device.

        Unmapping a range whose pages sit on swap must free their slots
        (as ``free_swap_and_cache`` does in the ``zap_pte_range`` walk);
        leaking them fills the device until swap-outs fail with ENOMEM.
        Returns slots released.
        """
        on_swap = vma.pt.swap >= 0
        slots = vma.pt.swap[on_swap]
        if slots.size == 0:
            return 0
        self.kernel.swap.free_slots(slots)
        vma.pt.set_swap(on_swap, -1)
        return int(slots.size)

    # ------------------------------------------------------ range surgery ---
    def _index_of(self, vma: Vma) -> int:
        i = bisect.bisect_left(self._starts, vma.start)
        if i < len(self._vmas) and self._vmas[i] is vma:
            return i
        raise SimulationError("VMA not in address space")

    def _insert(self, vma: Vma) -> None:
        i = bisect.bisect_left(self._starts, vma.start)
        self._vmas.insert(i, vma)
        self._starts.insert(i, vma.start)

    def _isolate(self, addr: int, nbytes: int) -> list[Vma]:
        """Split VMAs so [addr, addr+nbytes) is covered by whole VMAs.

        Raises ``ENOMEM`` if any part of the range is unmapped
        (matching ``mprotect``/``madvise`` semantics) and ``EINVAL``
        for unaligned or empty ranges.
        """
        if addr % PAGE_SIZE != 0 or nbytes <= 0:
            raise SyscallError(Errno.EINVAL, "bad address range")
        end = addr + ((nbytes + PAGE_SIZE - 1) >> PAGE_SHIFT << PAGE_SHIFT)
        out: list[Vma] = []
        pos = addr
        while pos < end:
            vma = self.find_vma(pos)
            if vma is None:
                raise SyscallError(Errno.ENOMEM, f"unmapped address 0x{pos:x}")
            if vma.start < pos:
                left, right = vma.split(vma.page_index(pos))
                self._replace(vma, [left, right])
                vma = right
            if vma.end > end:
                left, right = vma.split(vma.page_index(end))
                self._replace(vma, [left, right])
                vma = left
            out.append(vma)
            pos = vma.end
        return out

    def _replace(self, old: Vma, new: list[Vma]) -> None:
        i = self._index_of(old)
        self._vmas[i : i + 1] = new
        self._starts[i : i + 1] = [v.start for v in new]

    def _merge_around(self, vmas: list[Vma]) -> None:
        """Coalesce each VMA with compatible address-contiguous
        neighbours, keeping the VMA list from growing unboundedly under
        repeated mprotect cycles (as the user-space next-touch scheme
        performs)."""
        for vma in list(vmas):
            # An earlier merge in this loop may have absorbed this VMA.
            j = bisect.bisect_left(self._starts, vma.start)
            if j >= len(self._vmas) or self._vmas[j] is not vma:
                continue
            i = j
            # merge left
            while i > 0:
                prev = self._vmas[i - 1]
                if prev.end == self._vmas[i].start and prev.compatible(self._vmas[i]):
                    self._vmas[i - 1] = prev.merge(self._vmas[i])
                    del self._vmas[i]
                    del self._starts[i]
                    i -= 1
                else:
                    break
            # merge right
            while i + 1 < len(self._vmas):
                nxt = self._vmas[i + 1]
                if self._vmas[i].end == nxt.start and self._vmas[i].compatible(nxt):
                    self._vmas[i] = self._vmas[i].merge(nxt)
                    del self._vmas[i + 1]
                    del self._starts[i + 1]
                else:
                    break

    # ---------------------------------------------------- state operations --
    def apply_protection(self, addr: int, nbytes: int, prot: int) -> int:
        """``mprotect`` state change; returns PTEs whose bits changed."""
        affected = self._isolate(addr, nbytes)
        changed = 0
        for vma in affected:
            vma.prot = prot
            readable = bool(prot & PROT_READ) or bool(prot & PROT_WRITE)
            writable = bool(prot & PROT_WRITE)
            # Next-touch-marked pages stay invalid until their fault.
            nt = vma.pt.next_touch()
            changed += vma.pt.set_protection(slice(None), readable, writable)
            if nt.any():
                flags = vma.pt.flags
                hw = np.uint16(~(PTE_PRESENT | PTE_WRITE) & 0xFFFF)
                flags[nt] &= hw
                flags[nt] |= np.uint16(PTE_NEXTTOUCH)
        self._merge_around(affected)
        return changed

    def apply_policy(self, addr: int, nbytes: int, policy: Optional[MemPolicy]) -> None:
        """``mbind`` state change (the VMAs it splits may merge back)."""
        affected = self._isolate(addr, nbytes)
        for vma in affected:
            vma.policy = policy
        self._merge_around(affected)

    def range_segments(self, addr: int, nbytes: int) -> Iterator[tuple[Vma, int, int]]:
        """Yield ``(vma, first_page, last_page_exclusive)`` covering the
        byte range, skipping nothing: raises ``EFAULT`` on holes."""
        if nbytes <= 0:
            raise SyscallError(Errno.EINVAL, "empty range")
        pos = addr & ~(PAGE_SIZE - 1)
        end = addr + nbytes
        while pos < end:
            vma = self.find_vma(pos)
            if vma is None:
                raise SyscallError(Errno.EFAULT, f"unmapped address 0x{pos:x}")
            first = vma.page_index(pos)
            stop = min(vma.npages, ((end - 1 - vma.start) >> PAGE_SHIFT) + 1)
            yield vma, first, stop
            pos = vma.addr_of_page(stop - 1) + PAGE_SIZE
