"""The reference memory-model oracle.

A deliberately simple, obviously-correct model of the simulated
kernel's memory semantics: flat per-process dicts keyed by absolute
virtual page number, one :class:`PageState` per page that ever had
state, one :class:`RefFrame` per physical frame. No NumPy, no VMA
tree, no locks, no costs — just the *semantics* of each operation as
the paper (and the Linux mm it models) defines them:

* demand-zero first touch allocates on the toucher's node (DEFAULT
  policy) and grants the mapping's protection;
* ``madvise(MADV_NEXTTOUCH)`` marks populated private-anonymous pages
  invalid; the next toucher either migrates the page to its node or,
  when already local, just revalidates — without ever granting WRITE
  on a frame that is still COW-shared;
* ``fork`` shares every populated private frame copy-on-write in both
  processes (read-only and next-touch-marked pages included: their
  frames are just as shared);
* ``move_pages``/``migrate_pages`` remap the calling mapping to a
  fresh frame on the destination, preserving flags, and report the
  real call's per-page status contract;
* swap-out detaches frames to slots; the next touch faults the page
  in on the toucher's node.

The oracle replays the exact operation stream the real kernel model
executed (see :mod:`repro.check.harness`) and exposes a canonical
per-page view for diffing: :meth:`Oracle.page_codes` packs each page
into the int the kernel side's :class:`~repro.check.invariants.KernelView`
computes, and :meth:`Oracle.canonical` decodes it into tuples. Where
the kernel model has *documented quirks* — ``madvise(DONTNEED)``
leaving swap slots behind, ``fork`` not duplicating swap linkage — the
oracle mirrors them, with a comment, so the diff stays empty;
``docs/correctness.md`` lists them.

Timing-only state (ledger charges, ACCESSED/DIRTY bits, TLB counters)
is deliberately out of scope: the oracle checks *placement and
protection*, not cost.
"""

from __future__ import annotations

from typing import Optional

from ..errors import Errno
from ..kernel.addrspace import MMAP_BASE
from ..kernel.pagetable import PTE_COW, PTE_NEXTTOUCH, PTE_PRESENT, PTE_WRITE
from ..kernel.vma import PROT_READ, PROT_WRITE
from ..util.units import PAGE_SHIFT, PAGE_SIZE
from .invariants import NODE_SHIFT, ON_SWAP, REFS_SHIFT, page_tuple

__all__ = ["RefFrame", "PageState", "OracleProcess", "Oracle", "OracleSegv"]

#: Guard gap the bump allocator keeps between mappings (must match
#: ``repro.kernel.addrspace``).
_GUARD_PAGES = 1
#: Matches ``repro.kernel.access._MAX_RETRIES`` (fault retry ceiling).
_MAX_FAULT_LOOPS = 16


class OracleSegv(Exception):
    """A touch hit an illegal access (address, write) — no handler."""

    def __init__(self, address: int, write: bool) -> None:
        super().__init__(f"segv at 0x{address:x} (write={write})")
        self.address = address
        self.write = write


class RefFrame:
    """One physical frame: its node and how many mappings hold it."""

    __slots__ = ("node", "refs")

    def __init__(self, node: int) -> None:
        self.node = node
        self.refs = 1


class PageState:
    """Everything the oracle tracks about one virtual page."""

    __slots__ = ("frame", "present", "write", "nt", "cow", "swapped")

    def __init__(self) -> None:
        self.frame: Optional[RefFrame] = None
        self.present = False
        self.write = False
        self.nt = False
        self.cow = False
        self.swapped = False

    def empty(self) -> bool:
        return self.frame is None and not self.swapped and not (
            self.present or self.write or self.nt or self.cow
        )


class OracleProcess:
    """Flat per-process state: protection and page state by vpn."""

    def __init__(self, name: str) -> None:
        self.name = name
        #: vpn -> VMA-level protection (page mapped iff key present)
        self.prot: dict[int, int] = {}
        #: vpn -> MAP_SHARED flag
        self.shared: dict[int, bool] = {}
        #: vpn -> PageState (only pages with some state)
        self.pages: dict[int, PageState] = {}
        self.next_addr = MMAP_BASE

    def page(self, vpn: int) -> PageState:
        state = self.pages.get(vpn)
        if state is None:
            state = PageState()
            self.pages[vpn] = state
        return state

    def drop_if_empty(self, vpn: int) -> None:
        state = self.pages.get(vpn)
        if state is not None and state.empty():
            del self.pages[vpn]

    def allows(self, vpn: int, write: bool) -> bool:
        prot = self.prot.get(vpn)
        if prot is None:
            return False
        return bool(prot & (PROT_WRITE if write else PROT_READ))


class Oracle:
    """Replays the operation stream against the flat model."""

    def __init__(self, num_nodes: int, cores_per_node: int) -> None:
        self.num_nodes = num_nodes
        self.cores_per_node = cores_per_node
        self.procs: dict[str, OracleProcess] = {}
        #: demand-zero allocations per node (mirrors ``numa_hit``)
        self.numa_hit = [0] * num_nodes
        self.swapped_pages = 0

    # ------------------------------------------------------------ plumbing --
    def create_process(self, name: str) -> OracleProcess:
        proc = OracleProcess(name)
        self.procs[name] = proc
        return proc

    def node_of_core(self, core: int) -> int:
        return core // self.cores_per_node

    @staticmethod
    def _vpns(addr: int, nbytes: int) -> range:
        first = addr >> PAGE_SHIFT
        last = (addr + nbytes - 1) >> PAGE_SHIFT
        return range(first, last + 1)

    def _alloc(self, node: int) -> RefFrame:
        return RefFrame(node)

    @staticmethod
    def _deref(state: PageState) -> None:
        if state.frame is not None:
            state.frame.refs -= 1
            state.frame = None

    # ------------------------------------------------------------ ops -------
    # Range-based handlers share the signature (op, addr, nbytes): the
    # harness resolves the op's region id to a byte range before
    # dispatching (``op_<kind>``); mmap/fork/migrate_pages take no range.

    def op_mmap(self, op: dict) -> tuple:
        proc = self.procs[op["proc"]]
        npages = op["npages"]
        addr = proc.next_addr
        proc.next_addr = addr + ((npages + _GUARD_PAGES) << PAGE_SHIFT)
        base = addr >> PAGE_SHIFT
        for vpn in range(base, base + npages):
            proc.prot[vpn] = op["prot"]
            proc.shared[vpn] = bool(op.get("shared", False))
        return ("ok", addr)

    def op_munmap(self, op: dict, addr: int, nbytes: int) -> tuple:
        proc = self.procs[op["proc"]]
        vpns = self._vpns(addr, nbytes)
        if addr % PAGE_SIZE or nbytes <= 0:
            return ("err", Errno.EINVAL.name)
        if any(vpn not in proc.prot for vpn in vpns):
            return ("err", Errno.ENOMEM.name)  # atomic: no partial effects
        freed = 0
        for vpn in vpns:
            state = proc.pages.get(vpn)
            if state is not None:
                if state.frame is not None:
                    freed += 1
                self._deref(state)
                if state.swapped:
                    self.swapped_pages -= 1
                del proc.pages[vpn]
            del proc.prot[vpn]
            del proc.shared[vpn]
        return ("ok", freed)

    def op_mprotect(self, op: dict, addr: int, nbytes: int) -> tuple:
        proc = self.procs[op["proc"]]
        vpns = self._vpns(addr, nbytes)
        if addr % PAGE_SIZE or nbytes <= 0:
            return ("err", Errno.EINVAL.name)
        if any(vpn not in proc.prot for vpn in vpns):
            return ("err", Errno.ENOMEM.name)
        prot = op["prot"]
        readable = bool(prot & (PROT_READ | PROT_WRITE))
        writable = bool(prot & PROT_WRITE)
        for vpn in vpns:
            proc.prot[vpn] = prot
            state = proc.pages.get(vpn)
            if state is None:
                continue
            populated = state.frame is not None
            if state.nt:
                # Next-touch-marked pages stay invalid until their fault.
                state.present = False
                state.write = False
                continue
            state.present = populated and readable
            state.write = populated and writable and not state.cow
            proc.drop_if_empty(vpn)
        return ("ok", None)

    def op_madv_nt(self, op: dict, addr: int, nbytes: int) -> tuple:
        proc = self.procs[op["proc"]]
        vpns = self._vpns(addr, nbytes)
        # The real call materializes its segment list first: any hole
        # fails the whole range, then every segment is validated for
        # private-anonymous before any page is marked.
        if any(vpn not in proc.prot for vpn in vpns):
            return ("err", Errno.EFAULT.name)
        if any(proc.shared[vpn] for vpn in vpns):
            return ("err", Errno.EINVAL.name)
        affected = 0
        for vpn in vpns:
            state = proc.pages.get(vpn)
            if state is None or state.frame is None or state.nt:
                continue  # unpopulated pages take the first-touch path
            state.nt = True
            state.present = False
            state.write = False
            affected += 1
        return ("ok", affected)

    def op_madv_dontneed(self, op: dict, addr: int, nbytes: int) -> tuple:
        proc = self.procs[op["proc"]]
        vpns = self._vpns(addr, nbytes)
        if any(vpn not in proc.prot for vpn in vpns):
            return ("err", Errno.EFAULT.name)
        affected = 0
        for vpn in vpns:
            state = proc.pages.get(vpn)
            if state is None or state.frame is None:
                # Documented quirk mirrored: a swapped page survives
                # DONTNEED (its slot is not released), exactly as the
                # kernel model behaves — the paper's footnote about
                # DONTNEED not being a reliable zap lives on here.
                continue
            self._deref(state)
            state.present = state.write = state.nt = state.cow = False
            affected += 1
            proc.drop_if_empty(vpn)
        return ("ok", affected)

    def op_touch(self, op: dict, addr: int, nbytes: int) -> tuple:
        proc = self.procs[op["proc"]]
        write = bool(op.get("write", True))
        core = op["core"]
        node = self.node_of_core(core)
        for vpn in self._vpns(addr, nbytes):
            try:
                self._touch_page(proc, vpn, write, node)
            except OracleSegv as segv:
                return ("segv", segv.address)
        return ("ok", None)

    def _touch_page(self, proc: OracleProcess, vpn: int, write: bool, node: int) -> None:
        """One page of a touch: loop faults until the access succeeds,
        mirroring the retry loop in ``repro.kernel.access.touch_range``
        with the dispatch order of ``handle_fault``."""
        for _ in range(_MAX_FAULT_LOOPS):
            if not proc.allows(vpn, write):
                raise OracleSegv(vpn << PAGE_SHIFT, write)
            state = proc.page(vpn)
            needs = not state.present or (write and not state.write)
            if not needs:
                proc.drop_if_empty(vpn)
                return
            if state.nt:
                self._nt_fault(proc, vpn, state, node)
            elif state.swapped:
                self._swap_in(proc, vpn, state, node)
            elif state.frame is None:
                self._demand_zero(proc, vpn, state, node)
            elif write and state.cow:
                self._cow_fault(state, node)
            else:
                # Spurious fixup: restore what the VMA allows.
                state.present = True
                state.write = proc.allows(vpn, True) and not state.cow
        raise OracleSegv(vpn << PAGE_SHIFT, write)  # retry limit

    def _demand_zero(self, proc: OracleProcess, vpn: int, state: PageState, node: int) -> None:
        state.frame = self._alloc(node)
        state.present = True
        state.write = proc.allows(vpn, True)
        state.cow = False
        self.numa_hit[node] += 1

    def _nt_fault(self, proc: OracleProcess, vpn: int, state: PageState, node: int) -> None:
        assert state.frame is not None
        state.nt = False
        if state.frame.node == node:
            # Already local: revalidate in place — but a frame that is
            # still shared must stay write-protected COW.
            shared = state.frame.refs > 1
            state.present = True
            if shared:
                state.write = False
                state.cow = True
            else:
                state.write = proc.allows(vpn, True)
                state.cow = False
            return
        # Migrate by copy: the new frame is private to this mapping.
        self._deref(state)
        state.frame = self._alloc(node)
        state.present = True
        state.write = proc.allows(vpn, True)
        state.cow = False

    def _cow_fault(self, state: PageState, node: int) -> None:
        assert state.frame is not None
        if state.frame.refs == 1:
            state.cow = False
            state.present = True
            state.write = True
            return
        self._deref(state)
        state.frame = self._alloc(node)
        state.cow = False
        state.present = True
        state.write = True

    def _swap_in(self, proc: OracleProcess, vpn: int, state: PageState, node: int) -> None:
        state.swapped = False
        self.swapped_pages -= 1
        state.frame = self._alloc(node)
        state.present = True
        state.write = proc.allows(vpn, True)
        state.cow = False

    def op_move_pages(self, op: dict, addr: int, nbytes: int) -> tuple:
        proc = self.procs[op["proc"]]
        dest = op["dest"]
        if not (0 <= dest < self.num_nodes):
            return ("err", Errno.ENODEV.name)
        if addr % PAGE_SIZE:
            return ("err", Errno.EINVAL.name)
        status = []
        for vpn in self._vpns(addr, nbytes):
            if vpn not in proc.prot:
                status.append(-int(Errno.EFAULT))
                continue
            state = proc.pages.get(vpn)
            if state is None or state.frame is None:
                status.append(-int(Errno.ENOENT))
                continue
            if state.frame.node != dest:
                self._deref(state)
                state.frame = self._alloc(dest)
            status.append(dest)
        return ("ok", status)

    def op_migrate_pages(self, op: dict) -> tuple:
        proc = self.procs[op["proc"]]
        src, dst = op["src"], op["dst"]
        for bad in (src, dst):
            if not (0 <= bad < self.num_nodes):
                return ("err", Errno.ENODEV.name)
        if src != dst:
            for state in proc.pages.values():
                if state.frame is not None and state.frame.node == src:
                    self._deref(state)
                    state.frame = self._alloc(dst)
        return ("ok", 0)

    def op_fork(self, op: dict) -> tuple:
        parent = self.procs[op["proc"]]
        child = self.create_process(op["child"])
        child.prot = dict(parent.prot)
        child.shared = dict(parent.shared)
        child.next_addr = parent.next_addr
        for vpn, state in parent.pages.items():
            if state.frame is None:
                # Documented quirk mirrored: swap linkage is not
                # duplicated into the child — a swapped page reverts to
                # demand-zero there.
                continue
            state.frame.refs += 1
            clone = PageState()
            clone.frame = state.frame
            clone.present = state.present
            clone.write = state.write
            clone.nt = state.nt
            clone.cow = state.cow
            if not parent.shared[vpn]:
                # Every populated private page is COW in both processes.
                state.cow = clone.cow = True
                state.write = clone.write = False
            child.pages[vpn] = clone
        return ("ok", op["child"])

    def op_swap_out(self, op: dict, addr: int, nbytes: int) -> tuple:
        proc = self.procs[op["proc"]]
        written = 0
        # Walked segment by segment: effects before an offending
        # segment (hole -> EFAULT, shared -> EINVAL) are kept.
        vpn = addr >> PAGE_SHIFT
        last = (addr + nbytes - 1) >> PAGE_SHIFT
        while vpn <= last:
            if vpn not in proc.prot:
                return ("err", Errno.EFAULT.name)
            if proc.shared[vpn]:
                return ("err", Errno.EINVAL.name)
            # One segment: contiguous mapped private pages.
            while vpn <= last and vpn in proc.prot and not proc.shared[vpn]:
                state = proc.pages.get(vpn)
                if state is not None and state.frame is not None:
                    # NT-marked pages are populated too; they swap out
                    # as well (the flag does not survive the unmap).
                    self._swap_out_page(state)
                    written += 1
                vpn += 1
        return ("ok", written)

    def _swap_out_page(self, state: PageState) -> None:
        self._deref(state)
        state.present = state.write = state.nt = state.cow = False
        state.swapped = True
        self.swapped_pages += 1

    # ------------------------------------------------------------ canonical --
    def page_codes(self) -> tuple[dict[str, dict[int, int]], list[int]]:
        """Every process's pages with some state as ``{vpn: code}`` (the
        packing :func:`repro.check.invariants.page_tuple` decodes), and
        the distinct frames the pages hold per node."""
        codes: dict[str, dict[int, int]] = {}
        held: set[RefFrame] = set()
        for name, proc in self.procs.items():
            pages = codes[name] = {}
            for vpn, state in proc.pages.items():
                code = (
                    state.present * PTE_PRESENT
                    | state.write * PTE_WRITE
                    | state.nt * PTE_NEXTTOUCH
                    | state.cow * PTE_COW
                    | state.swapped * ON_SWAP
                )
                frame = state.frame
                if frame is not None:
                    code |= (frame.node + 1) << NODE_SHIFT | frame.refs << REFS_SHIFT
                    held.add(frame)
                if code:  # 0 exactly when the state is empty
                    pages[vpn] = code
        node_used = [0] * self.num_nodes
        for frame in held:
            node_used[frame.node] += 1
        return codes, node_used

    def canonical(self) -> dict:
        """The oracle's state in the harness's canonical diff form."""
        codes, node_used = self.page_codes()
        return {
            "procs": {
                name: {
                    "layout": {vpn: (prot, proc.shared[vpn]) for vpn, prot in proc.prot.items()},
                    "pages": {vpn: page_tuple(code) for vpn, code in codes[name].items()},
                }
                for name, proc in self.procs.items()
            },
            "node_used": node_used,
            "swap_used": self.swapped_pages,
            "numa_hit": list(self.numa_hit),
        }
