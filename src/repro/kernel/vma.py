"""Virtual memory areas (VMAs).

A VMA is a contiguous range of virtual pages sharing protection,
mapping flags and memory policy — the unit ``mmap``/``mprotect``/
``mbind`` operate on. Protections here are VMA-level (what accesses
are *allowed*); the hardware bits live in the VMA's
:class:`~repro.kernel.pagetable.PageTable` (what accesses *fault*).
The user-space next-touch scheme of the paper lives exactly in that
gap: ``mprotect(PROT_NONE)`` makes a legal buffer fault so a SIGSEGV
handler can migrate it.
"""

from __future__ import annotations

from typing import Optional

from ..errors import SimulationError
from ..sim.resources import Mutex
from ..util.units import PAGE_SHIFT, PAGE_SIZE
from .mempolicy import MemPolicy
from .pagetable import PageTable

__all__ = ["PROT_NONE", "PROT_READ", "PROT_WRITE", "PROT_RW", "Vma"]

#: No access allowed.
PROT_NONE: int = 0
#: Read access allowed.
PROT_READ: int = 1
#: Write access allowed (implies read in this model, as on x86).
PROT_WRITE: int = 2
#: Read + write.
PROT_RW: int = PROT_READ | PROT_WRITE


class Vma:
    """One virtual memory area."""

    __slots__ = ("start", "pt", "prot", "shared", "anonymous", "policy", "name", "anon_vma", "huge", "file", "pgoff", "mlocked")

    def __init__(
        self,
        start: int,
        npages: int,
        prot: int,
        *,
        shared: bool = False,
        anonymous: bool = True,
        policy: Optional[MemPolicy] = None,
        name: str = "",
        anon_vma: Optional[Mutex] = None,
    ) -> None:
        if start % PAGE_SIZE != 0:
            raise SimulationError(f"VMA start 0x{start:x} not page aligned")
        self.start = start
        self.pt = PageTable(npages)
        self.prot = prot
        self.shared = shared
        self.anonymous = anonymous
        self.policy = policy
        self.name = name
        #: Backed by 2 MiB huge pages (see :mod:`repro.ext.hugepages`).
        self.huge = False
        #: Backing file for file mappings (:mod:`repro.kernel.files`).
        self.file = None
        #: File page of the area's first page (Linux's ``vm_pgoff``).
        self.pgoff = 0
        #: Pinned against swap-out (``mlock``).
        self.mlocked = False
        #: The rmap lock serializing unmap operations over this area's
        #: pages (Linux's ``anon_vma`` lock); shared across splits of
        #: the same original mapping, which is what makes concurrent
        #: ``move_pages`` calls on one buffer serialize (Figure 7).
        self.anon_vma = anon_vma

    # ------------------------------------------------------------ geometry --
    @property
    def npages(self) -> int:
        """Number of pages in the area."""
        return self.pt.npages

    @property
    def end(self) -> int:
        """One past the last byte (exclusive end address)."""
        return self.start + (self.npages << PAGE_SHIFT)

    @property
    def nbytes(self) -> int:
        """Size in bytes."""
        return self.npages << PAGE_SHIFT

    def contains(self, addr: int) -> bool:
        """True if ``addr`` falls inside the area."""
        return self.start <= addr < self.end

    def page_index(self, addr: int) -> int:
        """Page offset of ``addr`` within the area."""
        if not self.contains(addr):
            raise SimulationError(f"0x{addr:x} outside VMA [{self.start:x}, {self.end:x})")
        return (addr - self.start) >> PAGE_SHIFT

    def addr_of_page(self, idx: int) -> int:
        """Virtual address of page ``idx``."""
        return self.start + (idx << PAGE_SHIFT)

    # ------------------------------------------------------------ checks ----
    def allows(self, write: bool) -> bool:
        """Whether the VMA protection permits the access."""
        if write:
            return bool(self.prot & PROT_WRITE)
        return bool(self.prot & PROT_READ)

    def compatible(self, other: "Vma") -> bool:
        """True if ``other``, the next area up, could be merged with
        this one (a file mapping must also continue in the file)."""
        return (
            self.prot == other.prot
            and self.shared == other.shared
            and self.anonymous == other.anonymous
            and self.policy == other.policy
            and self.anon_vma is other.anon_vma
            and self.name == other.name
            and self.huge == other.huge
            and self.file is other.file
            and (self.file is None or other.pgoff == self.pgoff + self.npages)
            and self.mlocked == other.mlocked
        )

    # ------------------------------------------------------------ surgery ---
    def like(self, start: int, pt: PageTable) -> "Vma":
        """A VMA at ``start`` over ``pt`` with every other attribute
        (each name in ``__slots__``) taken from this one."""
        vma = Vma.__new__(Vma)
        for name in Vma.__slots__:
            setattr(vma, name, getattr(self, name))
        vma.start = start
        vma.pt = pt
        return vma

    def split(self, at_page: int) -> tuple["Vma", "Vma"]:
        """Split into two VMAs at page index ``at_page``."""
        left_pt, right_pt = self.pt.split(at_page)
        right = self.like(self.addr_of_page(at_page), right_pt)
        right.pgoff = self.pgoff + at_page
        return self.like(self.start, left_pt), right

    def merge(self, other: "Vma") -> "Vma":
        """This area extended by the adjacent, compatible ``other``."""
        return self.like(self.start, self.pt.concat(other.pt))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Vma {self.name or 'anon'} [0x{self.start:x}, 0x{self.end:x}) "
            f"prot={self.prot} pages={self.npages}>"
        )
