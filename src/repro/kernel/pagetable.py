"""Page-table entries, stored struct-of-arrays per VMA.

A PTE in this model carries four columns:

* ``frame`` — physical frame id, or -1 when no frame is attached;
* ``node``  — owning NUMA node of the frame (cached for vectorized
  locality queries), -1 when no frame;
* ``flags`` — a bitfield (:data:`PTE_PRESENT`, :data:`PTE_WRITE`,
  :data:`PTE_NEXTTOUCH`, ...);
* ``swap``  — the swap slot of a page written out by
  :mod:`repro.kernel.swap`, -1 when the page is not on swap. Until
  :meth:`PageTable.set_swap` first stores a slot, the column is a
  read-only zero-stride view of -1 that holds no storage, so the
  tables of runs that never swap cost nothing for it.

Keeping the fields as NumPy arrays lets ``mprotect``/``madvise``
sweeps, locality histograms and batched fault classification run
vectorized, which is what makes simulating multi-gigabyte address
spaces tractable. :meth:`PageTable.split`, :meth:`PageTable.concat`
and :meth:`PageTable.fork_copy` are the only code that copies the
columns, so a new column is added here and nowhere else.

Note the distinction the next-touch mechanisms rely on: a page can have
a frame attached while *not* being ``PRESENT`` — that is exactly the
state ``madvise(MADV_NEXTTOUCH)`` and ``mprotect(PROT_NONE)`` leave
behind, so the next access faults without the data being lost.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError

__all__ = [
    "PTE_PRESENT",
    "PTE_WRITE",
    "PTE_NEXTTOUCH",
    "PTE_ACCESSED",
    "PTE_DIRTY",
    "PTE_COW",
    "PageTable",
]

#: Hardware valid bit: access does not fault.
PTE_PRESENT: int = 1 << 0
#: Hardware write-enable bit.
PTE_WRITE: int = 1 << 1
#: Software migrate-on-next-touch flag (the paper's kernel patch).
PTE_NEXTTOUCH: int = 1 << 2
#: Accessed bit (set on touch; informational).
PTE_ACCESSED: int = 1 << 3
#: Dirty bit (set on write; informational).
PTE_DIRTY: int = 1 << 4
#: Copy-on-write: the frame is shared; the first write must copy.
PTE_COW: int = 1 << 5

_NO_SLOT = np.int64(-1)


def _off_swap(npages: int) -> np.ndarray:
    """A swap column of ``npages`` pages none of which is on swap,
    holding no storage (read-only, zero stride)."""
    return np.broadcast_to(_NO_SLOT, (npages,))


def _part(column: np.ndarray, idx: slice) -> np.ndarray:
    """An independent copy of ``column[idx]``; a storage-free column
    stays storage-free."""
    part = column[idx]
    return part if column.strides == (0,) else part.copy()


class PageTable:
    """PTE arrays for one VMA of ``npages`` pages."""

    __slots__ = ("frame", "node", "flags", "swap")

    def __init__(self, npages: int) -> None:
        if npages < 1:
            raise ValueError("page table needs at least one page")
        self.frame = np.full(npages, -1, dtype=np.int64)
        self.node = np.full(npages, -1, dtype=np.int16)
        self.flags = np.zeros(npages, dtype=np.uint16)
        self.swap = _off_swap(npages)

    @classmethod
    def _of(cls, frame, node, flags, swap) -> "PageTable":
        """A table over the given columns (no copies made)."""
        pt = cls.__new__(cls)
        pt.frame, pt.node, pt.flags, pt.swap = frame, node, flags, swap
        return pt

    # ------------------------------------------------------------ queries --
    @property
    def npages(self) -> int:
        """Number of pages covered."""
        return int(self.frame.size)

    def present(self, idx=slice(None)) -> np.ndarray:
        """Boolean mask of PRESENT pages over ``idx``."""
        return (self.flags[idx] & PTE_PRESENT) != 0

    def populated(self, idx=slice(None)) -> np.ndarray:
        """Boolean mask of pages that have a frame attached."""
        return self.frame[idx] >= 0

    def next_touch(self, idx=slice(None)) -> np.ndarray:
        """Boolean mask of pages flagged migrate-on-next-touch."""
        return (self.flags[idx] & PTE_NEXTTOUCH) != 0

    def writable(self, idx=slice(None)) -> np.ndarray:
        """Boolean mask of pages with the hardware write bit."""
        return (self.flags[idx] & PTE_WRITE) != 0

    def resident_pages(self) -> int:
        """Number of pages with a frame attached."""
        return int(np.count_nonzero(self.frame >= 0))

    def node_histogram(self, num_nodes: int, idx=slice(None)) -> np.ndarray:
        """Per-node count of populated pages over ``idx``."""
        nodes = self.node[idx]
        nodes = nodes[nodes >= 0]
        return np.bincount(nodes, minlength=num_nodes)[:num_nodes]

    # ------------------------------------------------------------ updates --
    def map_pages(self, idx, frames: np.ndarray, nodes: np.ndarray, writable: bool) -> None:
        """Attach frames and mark PRESENT (plus WRITE when allowed)."""
        self.frame[idx] = frames
        self.node[idx] = nodes
        flags = PTE_PRESENT | PTE_ACCESSED | (PTE_WRITE | PTE_DIRTY if writable else 0)
        self.flags[idx] = flags

    def unmap_pages(self, idx) -> tuple[np.ndarray, np.ndarray]:
        """Detach frames entirely; returns (frames, nodes) that were mapped."""
        frames = self.frame[idx].copy()
        nodes = self.node[idx].copy()
        self.frame[idx] = -1
        self.node[idx] = -1
        self.flags[idx] = 0
        return frames[frames >= 0], nodes[frames >= 0]

    def set_protection(self, idx, readable: bool, writable: bool) -> int:
        """Apply hardware permission bits to populated pages.

        Returns the number of PTEs whose hardware bits changed (the
        caller uses this to decide whether a TLB flush is needed).
        """
        if writable and not readable:
            raise SimulationError("write-only protection is not a thing")
        sub = self.flags[idx]
        populated = self.frame[idx] >= 0
        old = sub.copy()
        hw_mask = np.uint16(~(PTE_PRESENT | PTE_WRITE) & 0xFFFF)
        new = sub & hw_mask
        if readable:
            new = np.where(populated, new | PTE_PRESENT, new)
        if writable:
            # COW pages must keep faulting on write until they unshare.
            grant = populated & ((sub & PTE_COW) == 0)
            new = np.where(grant, new | PTE_WRITE, new)
        self.flags[idx] = new
        return int(np.count_nonzero(old != new))

    def mark_next_touch(self, idx) -> int:
        """Flag populated pages NEXTTOUCH and clear their valid bits.

        Mirrors the paper's kernel patch (Section 3.3): "the LINUX
        kernel removes read/write flags from the page-table entries so
        that the next access causes a fault". Returns how many pages
        were newly marked (pages without frames are left for the
        ordinary first-touch path).
        """
        sub = self.flags[idx]
        populated = self.frame[idx] >= 0
        target = populated & ((sub & PTE_NEXTTOUCH) == 0)
        hw_mask = np.uint16(~(PTE_PRESENT | PTE_WRITE) & 0xFFFF)
        self.flags[idx] = np.where(target, (sub & hw_mask) | PTE_NEXTTOUCH, sub)
        return int(np.count_nonzero(target))

    def clear_next_touch(self, idx, writable: bool, cow=None) -> None:
        """Drop the NEXTTOUCH flag and restore valid bits.

        ``cow`` is an optional boolean mask (aligned with ``idx``):
        pages whose frame is still shared with another mapping must
        come back PRESENT but write-protected with the COW flag, so the
        first write still unshares them — revalidating a next-touch
        page must never hand out WRITE on a shared frame.
        """
        sub = self.flags[idx]
        full = PTE_PRESENT | PTE_ACCESSED | (PTE_WRITE | PTE_DIRTY if writable else 0)
        populated = self.frame[idx] >= 0
        restored = np.full(sub.shape, np.uint16(full))
        if cow is not None:
            restored = np.where(
                cow, np.uint16(PTE_PRESENT | PTE_ACCESSED | PTE_COW), restored
            )
        self.flags[idx] = np.where(populated, restored, sub & np.uint16(~PTE_NEXTTOUCH & 0xFFFF))

    def set_swap(self, idx, slots) -> None:
        """Store swap slots over ``idx`` (-1 takes pages off swap).

        The first store gives the column its storage."""
        if self.swap.strides == (0,):
            self.swap = np.full(self.npages, -1, dtype=np.int64)
        self.swap[idx] = slots

    # ------------------------------------------------------------ surgery --
    def split(self, at: int) -> tuple["PageTable", "PageTable"]:
        """Split into two independent tables at page index ``at``."""
        if not (0 < at < self.npages):
            raise SimulationError(f"bad split index {at} for {self.npages} pages")
        columns = (self.frame, self.node, self.flags, self.swap)
        left = PageTable._of(*(_part(c, slice(None, at)) for c in columns))
        right = PageTable._of(*(_part(c, slice(at, None)) for c in columns))
        return left, right

    def concat(self, other: "PageTable") -> "PageTable":
        """One table covering this one's pages, then ``other``'s."""
        if self.swap.strides == other.swap.strides == (0,):
            swap = _off_swap(self.npages + other.npages)
        else:
            swap = np.concatenate((self.swap, other.swap))
        return PageTable._of(
            np.concatenate((self.frame, other.frame)),
            np.concatenate((self.node, other.node)),
            np.concatenate((self.flags, other.flags)),
            swap,
        )

    def fork_copy(self) -> "PageTable":
        """The child's copy of this table at ``fork``.

        Frames, nodes and flags are copied; swap linkage is not (a
        documented quirk: a swapped page reverts to demand-zero in the
        child, see ``docs/correctness.md``)."""
        return PageTable._of(
            self.frame.copy(), self.node.copy(), self.flags.copy(), _off_swap(self.npages)
        )

    def check_invariants(self) -> None:
        """Internal consistency checks (used by tests)."""
        populated = self.frame >= 0
        present = (self.flags & PTE_PRESENT) != 0
        writable = (self.flags & PTE_WRITE) != 0
        nt = (self.flags & PTE_NEXTTOUCH) != 0
        if np.any(present & ~populated):
            raise SimulationError("PRESENT page without a frame")
        if np.any(writable & ~present):
            raise SimulationError("WRITE bit without PRESENT")
        if np.any(nt & present):
            raise SimulationError("NEXTTOUCH page still PRESENT")
        if np.any(populated & (self.node < 0)):
            raise SimulationError("frame attached but node unknown")
        if np.any(~populated & (self.node >= 0)):
            raise SimulationError("node recorded without frame")
