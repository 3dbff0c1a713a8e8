"""File-backed mappings and the page cache — paper future work, part 1.

Section 6: "Our Next-touch implementation should still be improved by
first supporting shared areas and **file mappings** instead of only
private anonymous pages."

This module models the minimum file stack those applications need:

* :class:`SimFile` — a file with a backing device (a
  :class:`~repro.kernel.swap.SwapDevice`-style disk) and a **page
  cache**: page index → frame, populated on first read wherever the
  first reader runs (the page cache has first-touch placement too,
  which is exactly why NUMA-aware applications care about it);
* shared file mappings — every mapper maps the *same* cache frame
  (reference-counted, so teardown order does not matter);
* private file mappings — cache frames mapped read-only COW; the
  first write gives the process an anonymous private copy on the
  writer's node through the ordinary COW machinery, after which the
  page is migratable like any anonymous page.

Writeback/msync is out of scope (no experiment needs it); reads charge
real device time on cache misses and nothing on hits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import Errno, SimulationError, SyscallError
from ..sim.resources import BandwidthResource
from ..util.units import PAGE_SIZE
from .core import Kernel
from .pagetable import PTE_COW
from .vma import PROT_WRITE, Vma

if TYPE_CHECKING:  # pragma: no cover
    from ..sched.thread import SimThread

__all__ = ["SimFile", "mmap_file", "file_fault_batch", "page_cache_stats"]


class SimFile:
    """One simulated file with its page cache."""

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        nbytes: int,
        *,
        read_bw_mb_s: float = 80.0,
        op_latency_us: float = 100.0,
    ) -> None:
        if nbytes <= 0:
            raise SyscallError(Errno.EINVAL, "empty file")
        self.kernel = kernel
        self.name = name
        self.nbytes = nbytes
        self.npages = -(-nbytes // PAGE_SIZE)
        self.device = BandwidthResource(kernel.env, read_bw_mb_s, name=f"file:{name}")
        self.op_latency_us = op_latency_us
        #: page index -> cached frame
        self.cache: dict[int, int] = {}
        #: contents by page index (contents-tracking mode)
        self.data: dict[int, np.ndarray] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        kernel.files.append(self)

    # ----------------------------------------------------------- contents ----
    def write_initial(self, offset: int, payload: bytes) -> None:
        """Populate file contents (test fixture; no simulated time)."""
        if not self.kernel.track_contents:
            raise SimulationError("file contents need Kernel(track_contents=True)")
        buf = np.frombuffer(payload, dtype=np.uint8)
        pos = 0
        while pos < buf.size:
            page, in_page = divmod(offset + pos, PAGE_SIZE)
            chunk = min(PAGE_SIZE - in_page, buf.size - pos)
            stored = self.data.setdefault(page, np.zeros(PAGE_SIZE, dtype=np.uint8))
            stored[in_page : in_page + chunk] = buf[pos : pos + chunk]
            pos += chunk

    # ---------------------------------------------------------- page cache ---
    def read_pages(self, thread: "SimThread", idxs: np.ndarray):
        """Ensure pages are cached; returns their frames (in order).

        Misses are read from the device into frames allocated on the
        *reading thread's* node — the page cache first-touch effect.
        """
        kernel = self.kernel
        frames = np.empty(idxs.size, dtype=np.int64)
        missing = [i for i, idx in enumerate(idxs) if int(idx) not in self.cache]
        if missing:
            node = kernel.machine.node_of_core(thread.core)
            fresh = kernel.alloc_on(node, len(missing))
            nbytes = float(len(missing) * PAGE_SIZE)
            t0 = kernel.env.now
            yield self.device.transfer(
                nbytes + self.op_latency_us * self.device.capacity
            )
            kernel.ledger.add("filemap.read", kernel.env.now - t0)
            for frame, i in zip(fresh, missing):
                idx = int(idxs[i])
                self.cache[idx] = int(frame)
                if kernel.track_contents and idx in self.data:
                    kernel.page_data[int(frame)] = self.data[idx].copy()
            self.cache_misses += len(missing)
        self.cache_hits += idxs.size - len(missing)
        for i, idx in enumerate(idxs):
            frames[i] = self.cache[int(idx)]
        return frames

    def drop_cache(self) -> int:
        """Evict every cached page (frames freed when unmapped).

        Returns pages evicted. Only legal when no mapping still uses
        the frames (refcount bookkeeping would catch misuse later).
        """
        evicted = len(self.cache)
        frames = np.asarray(list(self.cache.values()), dtype=np.int64)
        self.cache.clear()
        self.kernel.release_frames(frames)
        return evicted


def mmap_file(
    thread: "SimThread",
    file: SimFile,
    prot: int,
    *,
    shared: bool = True,
    name: str = "",
):
    """Map a file; returns the mapping address.

    ``shared=True`` maps the page cache directly (changes would be
    visible to every mapper); ``shared=False`` is MAP_PRIVATE: reads
    come from the cache, the first write COW-breaks into anonymous
    memory. Writable shared file mappings are rejected (no writeback
    modelled).
    """
    if shared and (prot & PROT_WRITE):
        raise SyscallError(Errno.EINVAL, "writable shared file mappings unsupported (no writeback)")
    process = thread.process
    yield thread.kernel.charge(
        "syscall.mmap", thread.kernel.cost.syscall_base_us + thread.kernel.cost.mmap_base_us
    )
    yield process.mmap_sem.acquire_write()
    try:
        vma = process.addr_space.mmap(
            file.nbytes, prot, shared=shared, name=name or f"file:{file.name}"
        )
        vma.anonymous = False
        vma.file = file
    finally:
        process.mmap_sem.release_write()
    return vma.start


def file_fault_batch(kernel: Kernel, thread: "SimThread", vma: Vma, idxs: np.ndarray):
    """Populate file-backed pages of one VMA (cache hit or device read).

    Shared mappings reference the cache frame; private mappings map it
    read-only with the COW flag, deferring the copy to the first write.
    """
    file = vma.file
    process = thread.process
    ptl = process.ptl(vma.start, int(idxs[0]))
    yield ptl.acquire()
    try:
        still = vma.pt.frame[idxs] < 0
        idxs = idxs[still]
        if idxs.size == 0:
            return
        frames = yield from file.read_pages(thread, idxs)
        kernel.ref_frames(frames)  # the mapping's reference
        from .frames import node_of_frame

        nodes = node_of_frame(frames).astype(np.int16)
        if vma.shared:
            vma.pt.map_pages(idxs, frames, nodes, vma.allows(True))
        else:
            # Private: read-only view of the cache, COW on first write.
            vma.pt.map_pages(idxs, frames, nodes, False)
            vma.pt.flags[idxs] |= np.uint16(PTE_COW)
        kernel.stats.minor_faults += int(idxs.size)
        yield kernel.charge("filemap.fault", kernel.cost.fault_entry_us * idxs.size)
    finally:
        ptl.release()


def page_cache_stats(file: SimFile) -> dict[str, int]:
    """Hit/miss/cached counters for one file."""
    return {
        "cached_pages": len(file.cache),
        "hits": file.cache_hits,
        "misses": file.cache_misses,
    }
