"""Read-only page replication across NUMA nodes — paper future work.

Section 6: "we will study the idea of replicating read-only pages
among NUMA nodes so as to achieve local access performance from
anywhere."

The :class:`ReplicationManager` keeps per-page replica frames for
read-only ranges. Coherence is enforced by protection: replicas may
only exist while the VMA is read-only, so any write first needs an
``mprotect`` — and :meth:`collapse` (dropping the replicas) is part of
that transition. Readers consult :meth:`effective_locality` (or the
:meth:`read` convenience) and see local placement on every node that
holds a replica.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ..errors import Errno, SyscallError
from ..kernel.core import Kernel, SimProcess
from ..kernel.vma import PROT_READ, Vma
from ..sched.thread import SimThread
from ..util.units import PAGE_SIZE

__all__ = ["ReplicationManager"]


class ReplicationManager:
    """Replica bookkeeping for one process."""

    def __init__(self, process: SimProcess) -> None:
        self.process = process
        self.kernel: Kernel = process.kernel
        # (vma.start, page_idx) -> {node: frame}
        self._replicas: dict[tuple[int, int], dict[int, int]] = defaultdict(dict)
        #: replicas created over the manager's lifetime
        self.replicas_created = 0
        #: replicas dropped by collapses
        self.replicas_collapsed = 0

    # ------------------------------------------------------------ queries ----
    def replica_nodes(self, vma: Vma, idx: int) -> set[int]:
        """Nodes holding a copy of page ``idx`` (home node included)."""
        home = int(vma.pt.node[idx])
        nodes = set(self._replicas.get((vma.start, idx), ()))
        if home >= 0:
            nodes.add(home)
        return nodes

    def effective_locality(self, vma: Vma, idxs: np.ndarray, reader_node: int) -> dict[int, float]:
        """Locality weights a reader on ``reader_node`` observes.

        Pages replicated on the reader's node count as local.
        """
        weights: dict[int, float] = defaultdict(float)
        for idx in np.asarray(idxs, dtype=np.int64):
            nodes = self.replica_nodes(vma, int(idx))
            if reader_node in nodes:
                weights[reader_node] += 1.0
            elif nodes:
                # nearest replica wins
                best = min(nodes, key=lambda n: self.kernel.machine.hops(reader_node, n))
                weights[best] += 1.0
        return dict(weights)

    # ------------------------------------------------------------ actions ----
    def replicate(self, thread: SimThread, addr: int, nbytes: int, nodes=None):
        """Copy the (read-only, populated) range onto ``nodes``.

        Returns the number of page replicas created. ``EINVAL`` if the
        range is writable — replicas would go incoherent.
        """
        kernel = self.kernel
        targets = list(nodes) if nodes is not None else list(range(kernel.machine.num_nodes))
        created = 0
        for vma, first, stop in self.process.addr_space.range_segments(addr, nbytes):
            if vma.prot != PROT_READ:
                raise SyscallError(Errno.EINVAL, "replication requires a read-only mapping")
            for idx in range(first, stop):
                home = int(vma.pt.node[idx])
                if home < 0:
                    raise SyscallError(Errno.ENOENT, "cannot replicate an unpopulated page")
                cell = self._replicas[(vma.start, idx)]
                for node in targets:
                    if node == home or node in cell:
                        continue
                    frame = kernel.allocators[node].alloc()
                    if kernel.track_contents:
                        src_frame = int(vma.pt.frame[idx])
                        data = kernel.page_data.get(src_frame)
                        if data is not None:
                            kernel.page_data[frame] = data.copy()
                    cell[node] = int(frame)
                    created += 1
                    yield kernel.copy_pages_event(home, node, float(PAGE_SIZE), self.process)
        self.replicas_created += created
        return created

    def collapse(self, thread: SimThread, addr: int, nbytes: int):
        """Drop every replica in the range (before making it writable).

        Returns the number of replicas freed.
        """
        kernel = self.kernel
        dropped = 0
        for vma, first, stop in self.process.addr_space.range_segments(addr, nbytes):
            for idx in range(first, stop):
                cell = self._replicas.pop((vma.start, idx), None)
                if not cell:
                    continue
                frames = np.asarray(list(cell.values()), dtype=np.int64)
                kernel.release_frames(frames)
                dropped += frames.size
        if dropped:
            # Replica PTE teardown must be visible machine-wide.
            yield kernel.tlb_shootdown(self.process, thread.core, tag="replication")
        self.replicas_collapsed += dropped
        return dropped

    def read(self, thread: SimThread, addr: int, nbytes: int):
        """Charge a read of the range at replica-aware locality."""
        kernel = self.kernel
        cost = kernel.cost
        total = 0.0
        for vma, first, stop in self.process.addr_space.range_segments(addr, nbytes):
            idxs = np.arange(first, stop, dtype=np.int64)
            locality = self.effective_locality(vma, idxs, thread.node)
            for node, pages in locality.items():
                factor = kernel.machine.numa_factor(thread.node, node)
                total += pages * PAGE_SIZE * factor / cost.local_stream_bw
        if total > 0:
            yield kernel.charge("access", total)
        return total
