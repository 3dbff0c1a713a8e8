"""The differential executor: one op stream, two memory models.

:class:`DiffHarness` pairs an :class:`OpExecutor` (a real simulated
system: kernel, threads, swap device) with a
:class:`~repro.check.oracle.Oracle`, feeds both the same operation
stream, and after **every** op compares:

1. the op's *outcome* (return value, errno, or segfault address);
2. every registered kernel invariant (:mod:`repro.check.invariants`);
3. the *canonical state* — per-page placement, protection, next-touch
   marks, COW/swap state, frame reference counts, per-node allocator
   usage, swap-slot usage, and ``numa_hit`` counters. The kernel side
   is read from the invariant sweep's :class:`KernelView`, one packed
   int per page, and messages are formatted only on a mismatch.

The first mismatch stops the run and is reported as a :class:`Failure`
carrying the step index and the offending op — the unit the fuzzer's
shrinker minimizes over.

Operation format
----------------
Ops are plain JSON-able dicts (the reproducer files store them
verbatim). Every op has ``kind``, ``proc`` (``"p0"``, ``"p1"``, ...)
and ``core``; range ops name a ``region`` (``"r0"``, ...) created by an
earlier ``mmap`` op plus a ``lo``/``hi`` page window into it:

========  =======================================================
kind      extra fields
========  =======================================================
mmap      ``region``, ``npages``, ``prot``, ``shared``
touch     ``region``, ``lo``, ``hi``, ``write``, ``batch``
mprotect  ``region``, ``lo``, ``hi``, ``prot``
madv_nt   ``region``, ``lo``, ``hi``
madv_dontneed  ``region``, ``lo``, ``hi``
munmap    ``region``, ``lo``, ``hi``
move_pages  ``region``, ``lo``, ``hi``, ``dest``
swap_out  ``region``, ``lo``, ``hi``
migrate_pages  ``src``, ``dst``
fork      ``child``
========  =======================================================

Ops whose ``proc``/``region``/``child`` reference is unknown are
*skipped* on both sides — that is what makes delta-debugging safe: any
subsequence of a valid op list is itself a valid op list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from ..errors import SegmentationFault, SyscallError
from ..hardware.topology import Machine
from ..kernel.core import SimProcess
from ..kernel.pagetable import PTE_NEXTTOUCH, PTE_PRESENT
from ..kernel.swap import SwapDevice, attach_swap
from ..kernel.syscalls import Madvise
from ..kernel.vma import PROT_WRITE
from ..system import System
from ..util.units import PAGE_SHIFT, PAGE_SIZE
from .invariants import KernelView, check_kernel, page_tuple
from .oracle import Oracle

__all__ = [
    "Failure",
    "OpExecutor",
    "DiffHarness",
    "fuzz_machine",
    "MACHINE_SPEC",
    "INJECTION_MODES",
]

#: The machine every fuzz run simulates (small enough to diff every
#: step, big enough for 4-node placement and swap pressure).
MACHINE_SPEC: dict = {"num_nodes": 4, "cores_per_node": 2, "mem_per_node": 8 << 20}

#: Ops that act on a byte range resolved from ``region``/``lo``/``hi``.
_RANGE_OPS = frozenset(
    ["munmap", "mprotect", "madv_nt", "madv_dontneed", "touch", "move_pages", "swap_out"]
)

#: How many individual differences a state diff reports before cutting
#: off (one is enough to fail; a handful helps debugging).
_MAX_DIFFS = 8

#: Deterministic fault injections (see :meth:`DiffHarness._apply_injection`).
INJECTION_MODES = ("nt-drop", "node-cache", "ref-leak", "prot-drift")


def fuzz_machine() -> Machine:
    """The standard machine for differential runs (see MACHINE_SPEC)."""
    return Machine.symmetric(
        MACHINE_SPEC["num_nodes"],
        MACHINE_SPEC["cores_per_node"],
        mem_per_node=MACHINE_SPEC["mem_per_node"],
    )


@dataclass
class Failure:
    """What the harness found, where, and on which op.

    ``kind`` is one of ``outcome`` (return values differ), ``invariant``
    (a :mod:`repro.check.invariants` checker fired), ``divergence``
    (canonical states differ) or ``crash`` (an exception neither model
    defines). ``name`` refines it: the op kind for outcome/divergence,
    the invariant name for invariant failures.
    """

    kind: str
    name: str
    step: int
    op: dict
    detail: list = field(default_factory=list)

    @property
    def signature(self) -> tuple:
        """What the shrinker holds fixed while minimizing."""
        return (self.kind, self.name)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "step": self.step,
            "op": self.op,
            "detail": [str(d) for d in self.detail],
        }


def _jsonable(value: Any) -> Any:
    """Outcome values normalized for comparison and JSON storage."""
    if isinstance(value, np.ndarray):
        return [int(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    return value


class OpExecutor:
    """The kernel half of a differential run: one op stream, one system.

    Owns a simulated system on :func:`fuzz_machine` with a swap device,
    and the proc and region tables that ops name. :meth:`run_op` runs
    one op on its own thread to completion and returns its outcome.
    :class:`DiffHarness` pairs an executor with the oracle; the
    fast-path equivalence suite runs two executors, one with
    ``kernel.force_slow_path`` set, and diffs their end states.

    ``bytes_per_page`` is the access cost ``touch`` ops charge per page
    (0 by default: the oracle models placement, not time).
    """

    def __init__(self, bytes_per_page: float = 0.0) -> None:
        self.system = System(fuzz_machine())
        self.kernel = self.system.kernel
        attach_swap(self.kernel, SwapDevice(self.kernel.env, capacity_pages=1 << 14))
        self.bytes_per_page = bytes_per_page
        #: proc id -> real SimProcess
        self.procs: dict[str, SimProcess] = {"p0": self.system.create_process("p0")}
        #: region id -> (start address, npages)
        self.regions: dict[str, tuple[int, int]] = {}

    def resolves(self, op: dict) -> bool:
        """Whether every proc/region/child reference in ``op`` resolves."""
        if op.get("proc") not in self.procs:
            return False
        kind = op.get("kind")
        if kind in _RANGE_OPS and op.get("region") not in self.regions:
            return False
        if kind == "mmap" and op.get("region") in self.regions:
            return False  # duplicate region id (malformed stream)
        if kind == "fork" and op.get("child") in self.procs:
            return False
        return True

    def resolve_range(self, op: dict) -> tuple[int, int]:
        """``(addr, nbytes)`` of a range op's ``lo``/``hi`` page window."""
        start, npages = self.regions[op["region"]]
        lo = int(op.get("lo", 0))
        hi = int(op.get("hi", npages))
        return start + (lo << PAGE_SHIFT), (hi - lo) << PAGE_SHIFT

    def run_op(self, op: dict) -> tuple:
        """Run one op whose references resolve; returns its outcome:
        ``("ok", value)``, ``("err", errno name)`` or ``("segv", address)``.
        A successful ``mmap`` registers its region, a ``fork`` its child.
        """
        kind = op["kind"]
        proc = self.procs[op["proc"]]
        core = int(op.get("core", 0))
        if kind in _RANGE_OPS:
            addr, nbytes = self.resolve_range(op)

        def body(t):
            if kind == "mmap":
                result = yield from t.mmap(
                    int(op["npages"]) * PAGE_SIZE,
                    int(op["prot"]),
                    shared=bool(op.get("shared", False)),
                )
            elif kind == "munmap":
                result = yield from t.munmap(addr, nbytes)
            elif kind == "mprotect":
                result = yield from t.mprotect(addr, nbytes, int(op["prot"]))
            elif kind == "madv_nt":
                result = yield from t.madvise(addr, nbytes, Madvise.NEXTTOUCH)
            elif kind == "madv_dontneed":
                result = yield from t.madvise(addr, nbytes, Madvise.DONTNEED)
            elif kind == "touch":
                result = yield from t.touch(
                    addr,
                    nbytes,
                    write=bool(op.get("write", True)),
                    batch=int(op.get("batch", 1)),
                    bytes_per_page=self.bytes_per_page,
                )
            elif kind == "move_pages":
                result = yield from t.move_range(addr, nbytes, int(op["dest"]))
            elif kind == "migrate_pages":
                result = yield from t.migrate_pages([int(op["src"])], [int(op["dst"])])
            elif kind == "fork":
                result = yield from t.fork()
            elif kind == "swap_out":
                result = yield from t.swap_out(addr, nbytes)
            else:
                raise ValueError(f"unknown op kind {kind!r}")
            return result

        thread = self.system.spawn(proc, core, body)
        try:
            value = self.system.run_to(thread.join())
        except SyscallError as exc:
            return ("err", exc.errno.name)
        except SegmentationFault as exc:
            return ("segv", int(exc.address))
        if isinstance(value, SimProcess):
            self.procs[op["child"]] = value
            return ("ok", op["child"])
        if kind == "mmap":
            self.regions[op["region"]] = (int(value), int(op["npages"]))
        return ("ok", _jsonable(value))


class DiffHarness:
    """Runs an op stream through kernel and oracle in lockstep."""

    def __init__(self, inject: Optional[str] = None) -> None:
        if inject is not None and inject not in INJECTION_MODES:
            raise ValueError(f"unknown injection mode {inject!r}; one of {INJECTION_MODES}")
        self.executor = OpExecutor()
        self.kernel = self.executor.kernel
        #: proc id -> real SimProcess (the oracle keeps its own table)
        self.kprocs = self.executor.procs
        self.oracle = Oracle(MACHINE_SPEC["num_nodes"], MACHINE_SPEC["cores_per_node"])
        self.oracle.create_process("p0")
        self.inject = inject
        self.steps_run = 0
        self.skipped = 0

    # ------------------------------------------------------------ execution --
    def run(self, ops: list[dict]) -> Optional[Failure]:
        """Run every op; returns the first :class:`Failure` or None."""
        for step, op in enumerate(ops):
            failure = self.step(step, op)
            if failure is not None:
                return failure
        return None

    def step(self, step: int, op: dict) -> Optional[Failure]:
        """Run one op through both models and compare everything."""
        if not self.executor.resolves(op):
            self.skipped += 1
            return None
        self.steps_run += 1
        kind = op["kind"]
        got = self.executor.run_op(op)
        if kind in _RANGE_OPS:
            addr, nbytes = self.executor.resolve_range(op)
            expected = getattr(self.oracle, f"op_{kind}")(op, addr, nbytes)
        else:
            expected = getattr(self.oracle, f"op_{kind}")(op)
        if _jsonable(list(got)) != _jsonable(list(expected)):
            return Failure(
                "outcome",
                kind,
                step,
                op,
                [f"kernel returned {_jsonable(list(got))}, oracle {_jsonable(list(expected))}"],
            )
        if self.inject is not None:
            self._apply_injection(op, got)
        view = KernelView(self.kernel)
        violations = check_kernel(self.kernel, view=view)
        if violations:
            return Failure(
                "invariant", violations[0].invariant, step, op, [str(v) for v in violations]
            )
        diffs = self.state_diff(view)
        if diffs:
            return Failure("divergence", kind, step, op, diffs)
        return None

    # ------------------------------------------------------------ injection --
    @staticmethod
    def _mapped_segments(proc: SimProcess, addr: int, nbytes: int):
        """Like ``range_segments`` but skips unmapped holes.

        A successful ``move_pages`` can span pages that were munmapped
        earlier (it reports them per-page as -EFAULT), so injection
        must tolerate holes instead of raising.
        """
        pos = addr & ~(PAGE_SIZE - 1)
        end = addr + nbytes
        while pos < end:
            resolved = proc.addr_space.resolve(pos)
            if resolved is None:
                pos += PAGE_SIZE
                continue
            vma, first = resolved
            stop = min(vma.npages, ((end - 1 - vma.start) >> PAGE_SHIFT) + 1)
            yield vma, first, stop
            pos = vma.addr_of_page(stop - 1) + PAGE_SIZE

    def _apply_injection(self, op: dict, got: tuple) -> None:
        """Deterministic fault injection (test-only) after matching ops.

        Modes corrupt *kernel* state the way a real regression would, so
        the selftest proves the harness catches and shrinks them:

        * ``nt-drop`` — after a successful ``madv_nt``, silently
          revalidate the marked pages (a lost next-touch mark);
        * ``node-cache`` — after a successful ``move_pages``, corrupt
          one page's cached node id;
        * ``ref-leak`` — after a successful ``fork``, leak one frame
          reference;
        * ``prot-drift`` — after a successful ``mprotect``, flip
          ``PROT_WRITE`` on one VMA in the range (only the diff's
          layout compare sees it).
        """
        if got[0] != "ok":
            return
        mode, kind = self.inject, op["kind"]
        if mode == "nt-drop" and kind == "madv_nt":
            addr, nbytes = self.executor.resolve_range(op)
            proc = self.kprocs[op["proc"]]
            for vma, first, stop in self._mapped_segments(proc, addr, nbytes):
                flags = vma.pt.flags[first:stop]
                nt = (flags & PTE_NEXTTOUCH) != 0
                flags[nt] = (flags[nt] & np.uint16(~PTE_NEXTTOUCH & 0xFFFF)) | np.uint16(
                    PTE_PRESENT
                )
                vma.pt.flags[first:stop] = flags
        elif mode == "node-cache" and kind == "move_pages":
            addr, nbytes = self.executor.resolve_range(op)
            proc = self.kprocs[op["proc"]]
            for vma, first, stop in self._mapped_segments(proc, addr, nbytes):
                populated = np.nonzero(vma.pt.frame[first:stop] >= 0)[0]
                if populated.size:
                    idx = first + int(populated[0])
                    vma.pt.node[idx] = (int(vma.pt.node[idx]) + 1) % self.oracle.num_nodes
                    return
        elif mode == "ref-leak" and kind == "fork":
            parent = self.kprocs[op["proc"]]
            for vma in parent.addr_space.vmas:
                frames = vma.pt.frame[vma.pt.frame >= 0]
                if frames.size:
                    f = int(frames[0])
                    self.kernel.frame_refs[f] = self.kernel.frame_refs.get(f, 1) + 1
                    return
        elif mode == "prot-drift" and kind == "mprotect":
            addr, nbytes = self.executor.resolve_range(op)
            proc = self.kprocs[op["proc"]]
            for vma, _first, _stop in self._mapped_segments(proc, addr, nbytes):
                vma.prot ^= PROT_WRITE
                return

    # ------------------------------------------------------------ diffing ----
    def state_diff(self, view: Optional[KernelView] = None) -> list[str]:
        """Differences between kernel and oracle canonical state.

        ``view`` is the kernel's current :class:`KernelView` (a fresh one
        when omitted). Each process's pages compare as ``{vpn: page
        code}`` dicts, its layout as the oracle's own ``prot``/``shared``
        dicts; messages are built, decoded to ``(node, P, W, NT, COW,
        swap, refs)`` tuples, only where those differ. ACCESSED/DIRTY
        bits and simulated time are deliberately outside the comparison
        (timing-only state; see ``docs/correctness.md``).
        """
        kernel, oracle = self.kernel, self.oracle
        view = KernelView(kernel) if view is None else view
        opages, node_used = oracle.page_codes()
        diffs: list[str] = []

        def _add(msg: str) -> bool:
            diffs.append(msg)
            return len(diffs) >= _MAX_DIFFS

        for what, kern, orac in (
            ("node_used", [a.used for a in kernel.allocators], node_used),
            ("swap_used", kernel.swap.used, oracle.swapped_pages),
            ("numa_hit", list(kernel.numastat.numa_hit), list(oracle.numa_hit)),
        ):
            if kern != orac and _add(f"{what}: kernel {kern} oracle {orac}"):
                return diffs
        # The kernel side: every page's vpn, prot and shared flag, and,
        # from one fixed set of array operations, the pages the canonical
        # form keeps (a frame, a slot or a flag) with their codes.
        vpns: list[int] = []
        prots: list[int] = []
        shared: list[bool] = []
        for (_proc, vma), n in zip(view.segments, view.sizes):
            base = vma.start >> PAGE_SHIFT
            vpns += range(base, base + n)
            prots += [int(vma.prot)] * n
            shared += [bool(vma.shared)] * n
        kept = np.flatnonzero(view.pte)
        kept_vpn = [vpns[i] for i in kept.tolist()]
        kept_code = view.page_codes()[kept].tolist()
        bounds = view.process_bounds()
        cuts = kept.searchsorted(bounds).tolist()
        spans = {
            proc: (bounds[i], bounds[i + 1], cuts[i], cuts[i + 1])
            for i, proc in enumerate(kernel.processes)
        }
        for pid in sorted(set(self.kprocs) | set(oracle.procs)):
            # Pages lo:hi of the view, kept pages first:last; a process
            # the view does not walk has none.
            lo, hi, first, last = spans.get(self.kprocs.get(pid), (0, 0, 0, 0))
            oproc = oracle.procs.get(pid)
            oprot, oshared = ({}, {}) if oproc is None else (oproc.prot, oproc.shared)
            # The oracle maps pages in address order, so equal key and
            # value lists mean equal layouts; anything else is walked.
            if not (
                list(oprot) == vpns[lo:hi]
                and list(oprot.values()) == prots[lo:hi]
                and list(oshared.values()) == shared[lo:hi]
            ):
                klayout = dict(zip(vpns[lo:hi], zip(prots[lo:hi], shared[lo:hi])))
                olayout = {v: (p, oshared[v]) for v, p in oprot.items()}
                for v in sorted(klayout.keys() | olayout.keys()):
                    a, b = klayout.get(v), olayout.get(v)
                    if a != b and _add(f"{pid} vpn 0x{v:x} layout: kernel {a} oracle {b}"):
                        return diffs
            kpages = dict(zip(kept_vpn[first:last], kept_code[first:last]))
            pages = opages.get(pid, {})
            if kpages != pages:
                for v in sorted(kpages.keys() | pages.keys()):
                    a, b = kpages.get(v), pages.get(v)
                    if a != b and _add(
                        f"{pid} vpn 0x{v:x} (node,P,W,NT,COW,swap,refs): "
                        f"kernel {None if a is None else page_tuple(a)} "
                        f"oracle {None if b is None else page_tuple(b)}"
                    ):
                        return diffs
        return diffs
