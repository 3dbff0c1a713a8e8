"""The simulated kernel: global memory-management state and services.

:class:`Kernel` owns everything shared machine-wide — frame allocators,
the link fabric, per-node LRU locks, the migration bandwidth channels,
the cost ledger and TLB bookkeeping. :class:`SimProcess` owns the
per-``mm`` state — address space, ``mmap_sem``, split page-table locks,
signal handlers, default memory policy.

All time-charging methods are generators meant to be driven from a
simulated thread (``yield from kernel.tlb_shootdown(...)``).
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Callable, Optional, TYPE_CHECKING

import numpy as np

from ..errors import OutOfMemory, SimulationError
from ..hardware.interconnect import LinkFabric
from ..hardware.topology import Machine
from ..obs import tracepoints
from ..obs.telemetry import KernelStats
from ..sim.engine import Environment, Event
from ..sim.resources import BandwidthResource, Mutex, RwLock
from ..util.units import PAGE_SIZE
from .accounting import Ledger
from .addrspace import AddressSpace
from .frames import FrameAllocator, node_of_frame
from .mempolicy import MemPolicy, PolicyKind, candidate_nodes

if TYPE_CHECKING:  # pragma: no cover
    from ..sched.cpuset import CpuSet
    from .swap import SwapDevice

__all__ = ["Kernel", "SimProcess", "KernelStats", "SIGSEGV"]

#: Signal number for segmentation faults (the only one we model).
SIGSEGV: int = 11


class NumaStats:
    """Per-node allocation counters, as ``numastat`` reports them.

    * ``numa_hit`` — allocation satisfied on the intended node;
    * ``numa_miss`` — allocation landed here although another node was
      intended (that node was full);
    * ``numa_foreign`` — allocation intended here but satisfied
      elsewhere (this node was full);
    * ``interleave_hit`` — interleave-policy allocation satisfied on
      the intended round-robin node.
    """

    def __init__(self, num_nodes: int) -> None:
        self.numa_hit = [0] * num_nodes
        self.numa_miss = [0] * num_nodes
        self.numa_foreign = [0] * num_nodes
        self.interleave_hit = [0] * num_nodes

    def record(self, intended: int, got: int, count: int, interleaved: bool) -> None:
        """Book ``count`` pages allocated on ``got``, wanted on ``intended``."""
        if got == intended:
            self.numa_hit[got] += count
            if interleaved:
                self.interleave_hit[got] += count
        else:
            self.numa_miss[got] += count
            self.numa_foreign[intended] += count

    def as_table(self) -> dict[str, list[int]]:
        """The counters, keyed like ``numastat`` rows."""
        return {
            "numa_hit": list(self.numa_hit),
            "numa_miss": list(self.numa_miss),
            "numa_foreign": list(self.numa_foreign),
            "interleave_hit": list(self.interleave_hit),
        }


class Kernel:
    """Global simulated-kernel state for one machine instance."""

    def __init__(
        self,
        env: Environment,
        machine: Machine,
        *,
        track_contents: bool = False,
    ) -> None:
        self.env = env
        self.machine = machine
        self.cost = machine.cost
        self.ledger = Ledger()
        self.stats = KernelStats()
        self.numastat = NumaStats(machine.num_nodes)
        #: Whether page contents are carried (tests) or elided (speed).
        self.track_contents = track_contents
        self.fabric = LinkFabric(env, machine.interconnect)
        self.allocators = [FrameAllocator(n.id, n.mem_bytes) for n in machine.nodes]
        #: Per-node zone ``lru_lock`` serializing alloc/putback paths.
        self.lru_locks = [
            Mutex(env, name=f"lru_lock:{n.id}", handoff_us=self.cost.lock_handoff_us)
            for n in machine.nodes
        ]
        #: ``migrate_prep``'s lru_add_drain_all is effectively global.
        self.migrate_prep_lock = Mutex(env, name="migrate_prep")
        self._channels: dict[tuple[int, int], BandwidthResource] = {}
        #: frame id -> page payload (only with ``track_contents``).
        self.page_data: dict[int, np.ndarray] = {}
        #: frame id -> reference count, kept ONLY for frames shared by
        #: more than one mapping (fork/COW); absent means refcount 1.
        self.frame_refs: dict[int, int] = {}
        #: every :class:`~repro.kernel.files.SimFile` created against
        #: this kernel (their page caches hold frame references that the
        #: invariant checkers must account for).
        self.files: list = []
        #: The swap device (:func:`repro.kernel.swap.attach_swap`), if any.
        self.swap: Optional["SwapDevice"] = None
        #: ``MADV_NEXTTOUCH`` accepted on shared anonymous mappings
        #: (:func:`repro.ext.shared_nt.enable_shared_next_touch`).
        self.shared_next_touch = False
        self._next_pid = 1
        self.processes: list[SimProcess] = []
        #: Wall-clock fast paths (the run-op replays) are on by
        #: default; ``REPRO_SLOW_PATH=1`` in the environment at
        #: construction — or setting this on an instance — forces the
        #: per-page reference paths (the equivalence suite diffs the
        #: two). Simulated results are identical either way.
        self.force_slow_path = os.environ.get("REPRO_SLOW_PATH", "") in ("1", "true", "yes")
        #: Optional access profiler (:class:`repro.kernel.heat.HeatTracker`)
        #: the touch paths report resident accesses into. ``None`` (the
        #: default) keeps the hot paths at one attribute test per run;
        #: attaching one never alters simulated behavior — placement
        #: drivers read it, the kernel itself never does.
        self.access_profiler = None

    # ------------------------------------------------------------ processes --
    def create_process(self, name: str = "", policy: Optional[MemPolicy] = None) -> "SimProcess":
        """Create a new simulated process with an empty address space."""
        proc = SimProcess(self, self._next_pid, name or f"proc{self._next_pid}", policy)
        self._next_pid += 1
        self.processes.append(proc)
        return proc

    def destroy_process(self, process: "SimProcess") -> int:
        """Tear a process down: unmap everything, release its frames.

        Reference-counted (forked/COW/page-cache) frames survive while
        other owners remain. Returns pages released by this process.
        The process must have no running threads. Mirrors ``exit()``'s
        mm teardown.
        """
        if any(t._proc is not None and t._proc.is_alive for t in process.threads):
            raise SimulationError(f"{process.name}: threads still running")
        released = 0
        for vma in process.addr_space.vmas:
            frames, _nodes = vma.pt.unmap_pages(slice(None))
            self.release_frames(frames)
            process.addr_space.release_swap_slots(vma)
            released += int(frames.size)
        process.addr_space._vmas.clear()
        process.addr_space._starts.clear()
        process._ptls.clear()
        if process in self.processes:
            self.processes.remove(process)
        return released

    # ------------------------------------------------------------ accounting --
    def charge(self, tag: str, duration_us: float):
        """A timeout of ``duration_us`` recorded in the ledger.

        Yield the returned event from the calling thread.
        """
        self.ledger.add(tag, duration_us)
        return self.env.timeout(duration_us)

    def turbo_ok(self) -> bool:
        """Whether the run-op replays may engage right now.

        It gates the five replays: ``demand_zero_run``,
        ``migrate_run``, ``nt_fault_run``, ``cow_break_run`` and
        ``swap_in_run``.
        The load-bearing condition is ``env.idle``: with nothing else
        scheduled, no other process can run — or observe intermediate
        state — before a replay schedules its own completion, so
        replaying a multi-event sequence inline is indistinguishable
        from stepping through it. No ``run(until=<float>)`` horizon may
        be set either (``env.horizon``): a replay commits its whole run
        at once, and the run would stop partway through it. Tracepoint
        recorders keep the reference path, where their per-event spans
        still exist. Ledger sinks (an attached
        :class:`~repro.sim.trace.Tracer`) need no clause: every replay
        hands them each charge's simulated instant.
        """
        return (
            not self.force_slow_path
            and self.env.idle
            and self.env.horizon is None
            and not tracepoints.tracepoints_enabled()
        )

    # ------------------------------------------------------------ frames -----
    def alloc_on(self, node: int, count: int) -> np.ndarray:
        """Allocate ``count`` frames strictly on ``node``."""
        return self.allocators[node].alloc_many(count)

    # ------------------------------------------------------------ placement --
    def _candidate_table(self, process: "SimProcess", vma, local_node: int):
        """``(policy, table, strict)``: :func:`candidate_nodes` per interleave
        offset (one list for other policies) narrowed to the cpuset's ``mems``."""
        policy = process.policy_for(vma)
        table = []
        for vpn in range(len(policy.nodes) if policy.kind is PolicyKind.INTERLEAVE else 1):
            nodes, strict = candidate_nodes(policy, vpn, local_node, self.machine.num_nodes)
            if process.allowed_mems is not None:
                nodes = [n for n in nodes if n in process.allowed_mems]
                if not nodes:
                    raise OutOfMemory("memory policy incompatible with cpuset mems")
            table.append(nodes)
        return policy, table, strict

    def first_touch(self, process: "SimProcess", vma, idxs, local_node: int):
        """Where first touch puts pages ``idxs`` of ``vma``, the one rule
        every demand-zero path asks: ``(intended, targets)``, ints for an
        ``int`` page, else arrays like the ascending ``idxs``.

        A page's candidates are those of its offset in the mapping,
        ``vma.pgoff + idx`` (Linux's ``interleave_nid()`` offset); the
        first is its intended node. It lands on the first with a frame
        left after the pages before it, as back-to-back single-page
        faults would. Commits nothing (the caller allocates and calls
        :meth:`book_first_touch`); raises :class:`OutOfMemory` when a
        page has no candidate with a frame.
        """
        policy, table, strict = self._candidate_table(process, vma, local_node)
        if isinstance(idxs, int):
            nodes = table[(vma.pgoff + idxs) % len(table)]
            for node in nodes:
                if self.allocators[node].free:
                    return nodes[0], node
        else:
            residue = (vma.pgoff + idxs) % len(table)
            heads = np.array([nodes[0] for nodes in table])
            free = [a.free for a in self.allocators]
            # Unless a node runs out, each offset's first candidate with a frame seats them all.
            firsts = [next((n for n in nodes if free[n]), -1) for nodes in table]
            targets = np.array(firsts)[residue]
            if min(firsts) >= 0 and (np.bincount(targets, minlength=len(free)) <= free).all():
                return heads[residue], targets
            for i, r in enumerate(residue.tolist()):
                targets[i] = node = next((n for n in table[r] if free[n]), -1)
                if node < 0:
                    break
                free[node] -= 1
            else:
                return heads[residue], targets
        if strict:
            raise OutOfMemory(f"policy {policy.kind.value} nodes {policy.nodes} exhausted")
        raise OutOfMemory("all nodes out of frames")

    def intended_nodes(self, process: "SimProcess", vma, idxs: np.ndarray, local_node: int):
        """:meth:`first_touch`'s intended node of each page, free frames
        or not: where ``mbind(MPOL_MF_MOVE)`` puts it."""
        _policy, table, _strict = self._candidate_table(process, vma, local_node)
        return np.array([nodes[0] for nodes in table])[(vma.pgoff + idxs) % len(table)]

    def book_first_touch(self, policy: Optional[MemPolicy], intended, got, count: int = 1):
        """Book committed first touches, ints for ``count`` pages or
        :meth:`first_touch`'s arrays, in ``numastat`` (the only caller
        of :meth:`NumaStats.record`; interleave hits under INTERLEAVE)."""
        interleaved = policy is not None and policy.kind is PolicyKind.INTERLEAVE
        groups = [(intended, got, count)]
        if isinstance(got, np.ndarray):
            n = self.machine.num_nodes
            pairs = np.bincount(intended * n + got, minlength=n * n)
            groups = [(*divmod(p, n), int(pairs[p])) for p in np.flatnonzero(pairs).tolist()]
        for want, node, pages in groups:
            self.numastat.record(want, node, pages, interleaved)

    def release_frames(self, frames: np.ndarray) -> None:
        """Drop one reference per frame; free those reaching zero."""
        frames = np.asarray(frames, dtype=np.int64)
        if frames.size == 0:
            return
        if self.frame_refs:
            keep = np.zeros(frames.size, dtype=bool)
            for i, f in enumerate(frames):
                refs = self.frame_refs.get(int(f))
                if refs is not None:
                    if refs > 2:
                        self.frame_refs[int(f)] = refs - 1
                    else:
                        del self.frame_refs[int(f)]  # back to sole owner
                    keep[i] = True
            frames = frames[~keep]
            if frames.size == 0:
                return
        # A node's frames form one id range, so a batch whose lowest and
        # highest frames share an owner belongs to that node whole.
        lo = node_of_frame(int(frames.min()))
        if lo == node_of_frame(int(frames.max())):
            self.allocators[lo].free_many(frames)
        else:
            owners = node_of_frame(frames)
            for node in np.flatnonzero(np.bincount(owners)).tolist():
                self.allocators[node].free_many(frames[owners == node])
        if self.track_contents:
            for f in frames:
                self.page_data.pop(int(f), None)

    def ref_frames(self, frames: np.ndarray) -> None:
        """Add one reference per frame (fork/COW sharing)."""
        for f in np.asarray(frames, dtype=np.int64):
            self.frame_refs[int(f)] = self.frame_refs.get(int(f), 1) + 1

    def frame_shared(self, frame: int) -> bool:
        """Whether more than one mapping references ``frame``."""
        return self.frame_refs.get(int(frame), 1) > 1

    def frames_shared_mask(self, frames: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`frame_shared` over an array of frame ids."""
        frames = np.asarray(frames, dtype=np.int64)
        if not self.frame_refs:
            return np.zeros(frames.shape, dtype=bool)
        return np.fromiter(
            (self.frame_refs.get(int(f), 1) > 1 for f in frames),
            dtype=bool,
            count=frames.size,
        ).reshape(frames.shape)

    def move_contents(self, old_frames: np.ndarray, new_frames: np.ndarray) -> None:
        """Carry page payloads across a migration (contents mode only).

        Shared (forked/COW) source frames keep their payload — the
        other mapping still reads it; only sole-owner frames hand the
        payload over.
        """
        if not self.track_contents:
            return
        for old, new in zip(old_frames, new_frames):
            if self.frame_shared(int(old)):
                data = self.page_data.get(int(old))
                if data is not None:
                    self.page_data[int(new)] = data.copy()
            else:
                data = self.page_data.pop(int(old), None)
                if data is not None:
                    self.page_data[int(new)] = data

    # ------------------------------------------------------------ transfers --
    def migration_channel(self, process: "SimProcess") -> BandwidthResource:
        """The migration pipeline of one process (mm).

        The ceiling is not HyperTransport capacity but the kernel's
        per-mm copy loop with its page-table locking — the paper
        measures it at ~1.3 GB/s aggregate however many threads push
        (Fig. 7), and it is what makes whole-matrix next-touch storms
        expensive in the LU runs (Table 1's small-block rows).
        """
        key = process.pid
        if key not in self._channels:
            self._channels[key] = BandwidthResource(
                self.env, self.cost.migration_channel_bw, name=f"migrate:pid{key}"
            )
        return self._channels[key]

    def copy_pages_event(
        self, src: int, dst: int, nbytes: float, process: Optional["SimProcess"] = None
    ) -> Event:
        """Event for copying ``nbytes`` of pages from node src to dst.

        Each copy stream is capped at the kernel's single-threaded page
        copy rate (~1 GB/s, no MMX/SSE); concurrent streams of the same
        process share its migration pipeline.
        """
        if src == dst:
            return self.env.timeout(nbytes / self.cost.kernel_page_copy_bw)
        if process is None:
            return self.fabric.transfer(src, dst, nbytes, max_rate=self.cost.kernel_page_copy_bw)
        return self.migration_channel(process).transfer(
            nbytes, max_rate=self.cost.kernel_page_copy_bw
        )

    # ------------------------------------------------------------ TLB --------
    def tlb_shootdown(self, process: "SimProcess", initiator_core: int, tag: str = "tlb"):
        """Cost event for a TLB shootdown over the process's CPU set.

        The initiator pays one IPI round-trip per *other* CPU currently
        running a thread of this mm, plus its own local flush — this is
        why concurrent ``move_pages`` threads hurt each other (Fig. 7).
        """
        return self.tlb_shootdown_batch(process, initiator_core, 1, tag=tag)

    def tlb_shootdown_batch(
        self, process: "SimProcess", initiator_core: int, count: int, tag: str = "tlb"
    ):
        """Cost event for ``count`` back-to-back TLB shootdowns.

        Equivalent to ``count`` calls to :meth:`tlb_shootdown` in one
        charge (used by the per-page-flushing migration loop).
        """
        return self.charge(tag, self.tlb_shootdown_cost(process, initiator_core, count))

    def tlb_shootdown_cost(
        self, process: "SimProcess", initiator_core: int, count: int
    ) -> float:
        """Stat bumps plus the cost of ``count`` shootdowns, *uncharged*.

        Split out so the ``fork``/``mprotect``/``madvise`` tails can
        pass it to :func:`~repro.kernel.runops.charge_stages` as a
        callable stage: the running-core set is read when that stage
        starts, after the stage before it has slept.
        """
        others = process.running_cores_except(initiator_core)
        self.stats.tlb_shootdowns += count
        self.stats.tlb_ipis += count * len(others)
        self.stats.tlb_local_flushes += count
        cost = self.cost.tlb_flush_local_us + self.cost.tlb_shootdown_per_cpu_us * len(others)
        return cost * count

    # ------------------------------------------------------------ queries ----
    def node_free_pages(self) -> list[int]:
        """Free frames per node (like ``/sys/.../node*/meminfo``)."""
        return [a.free for a in self.allocators]


class SimProcess:
    """One simulated process: an ``mm`` plus its threads and signals."""

    def __init__(
        self, kernel: Kernel, pid: int, name: str, policy: Optional[MemPolicy] = None
    ) -> None:
        self.kernel = kernel
        self.pid = pid
        self.name = name
        self.addr_space = AddressSpace(kernel, name=name)
        #: Default (task) memory policy; DEFAULT = first-touch local.
        self.default_policy = policy or MemPolicy.default()
        #: cpuset confinement: nodes pages may come from (None = all).
        self.allowed_mems: Optional[tuple[int, ...]] = None
        #: cpuset confinement: cores threads may run on (None = all).
        self.allowed_cores: Optional[tuple[int, ...]] = None
        #: The cpuset confining the process (:mod:`repro.sched.cpuset`).
        self.cpuset: Optional["CpuSet"] = None
        #: ``mmap_sem``: shared for fault/move_pages walks, exclusive
        #: for mapping changes.
        self.mmap_sem = RwLock(kernel.env, name=f"mmap_sem:{name}")
        self._ptls: dict[int, Mutex] = {}
        #: signum -> generator function(thread, siginfo)
        self.signal_handlers: dict[int, Callable] = {}
        self.threads: list = []
        self._core_occupancy: Counter[int] = Counter()
        self._next_tid = 1

    # ------------------------------------------------------------ threads ----
    def allocate_tid(self) -> int:
        """Next thread id within the process."""
        tid = self._next_tid
        self._next_tid += 1
        return tid

    def thread_started(self, thread) -> None:
        """Bookkeeping when a thread starts running on its core."""
        self.threads.append(thread)
        self._core_occupancy[thread.core] += 1

    def thread_stopped(self, thread) -> None:
        """Bookkeeping when a thread finishes."""
        self._core_occupancy[thread.core] -= 1
        if self._core_occupancy[thread.core] <= 0:
            del self._core_occupancy[thread.core]

    def thread_moved(self, old_core: int, new_core: int) -> None:
        """Bookkeeping for a thread migrating between cores."""
        self._core_occupancy[old_core] -= 1
        if self._core_occupancy[old_core] <= 0:
            del self._core_occupancy[old_core]
        self._core_occupancy[new_core] += 1

    def running_cores_except(self, core: int) -> list[int]:
        """Cores (other than ``core``) currently running this mm."""
        return [c for c in self._core_occupancy if c != core]

    # ------------------------------------------------------------ locks ------
    def ptl(self, vma_start: int, page_idx: int) -> Mutex:
        """The split page-table lock covering a page.

        One lock per page-table page (pmd), i.e. per 2 MiB of virtual
        address space, exactly like ``USE_SPLIT_PTLOCKS`` Linux. This
        granularity is why sub-megabyte concurrent migrations serialize
        completely while large buffers spread over many locks (Fig. 7).
        """
        key = (vma_start + page_idx * PAGE_SIZE) >> 21
        lock = self._ptls.get(key)
        if lock is None:
            lock = Mutex(
                self.kernel.env,
                name=f"ptl:{self.name}:{key:x}",
                handoff_us=self.kernel.cost.lock_handoff_us,
            )
            self._ptls[key] = lock
        return lock

    # ------------------------------------------------------------ signals ----
    def sigaction(self, signum: int, handler: Optional[Callable]) -> None:
        """Install (or clear, with None) a signal handler.

        The handler is a generator function ``handler(thread, siginfo)``
        executed on the faulting thread, like a real signal frame.
        """
        if handler is None:
            self.signal_handlers.pop(signum, None)
        else:
            self.signal_handlers[signum] = handler

    def policy_for(self, vma) -> MemPolicy:
        """Effective policy for a VMA (VMA policy else task default)."""
        return vma.policy if vma.policy is not None else self.default_policy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimProcess pid={self.pid} {self.name!r} threads={len(self.threads)}>"
