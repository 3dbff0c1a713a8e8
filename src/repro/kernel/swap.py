"""Swap: the next-touch implementation the paper rejected.

Section 3.2: "A first way to implement the Next-touch policy in
user-space would be to force pages to be swapped-out to the disk so
that the next application access moves them back to the host memory,
possibly on a different NUMA node. However, LINUX does not offer any
reliable way to force such a swap-out [footnote: madvise DONTNEED /
REMOVE do not implement the proper behavior] and its performance will
be strongly limited by the storage subsystem."

We build exactly that rejected design so the claim is measurable:

* :class:`SwapDevice` — a 2009-class disk (sequential ~60 MB/s, real
  per-operation latency) as a shared bandwidth resource;
* :func:`sys_swap_out` — the *forced* swap-out Linux lacked (this is a
  simulator; we can have it);
* swap-in integrated in the fault path: a swapped page faults back in
  on the toucher's node — which is the next-touch effect, at disk
  speed.

The ``swap_based_next_touch`` benchmark pits it against the kernel
next-touch and reproduces the paper's verdict: two orders of magnitude
slower.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

import numpy as np

from ..errors import Errno, SyscallError
from ..obs import tracepoints
from ..sim.engine import Environment
from ..sim.resources import BandwidthResource
from ..util.units import PAGE_SIZE
from .core import Kernel
from .vma import Vma

if TYPE_CHECKING:  # pragma: no cover
    from ..sched.thread import SimThread

__all__ = ["SwapDevice", "attach_swap", "sys_swap_out", "swapped_pages"]


class SwapDevice:
    """A disk-backed swap area."""

    def __init__(
        self,
        env: Environment,
        capacity_pages: int = 1 << 20,
        *,
        bandwidth_mb_s: float = 60.0,
        op_latency_us: float = 120.0,
    ) -> None:
        if capacity_pages < 1:
            raise ValueError("swap needs at least one slot")
        self.env = env
        self.capacity = capacity_pages
        self.op_latency_us = op_latency_us
        self.channel = BandwidthResource(env, bandwidth_mb_s, name="swapdev")
        self._free: list[int] = []
        self._bump = 0
        #: payloads by slot (only when the kernel tracks contents)
        self.slot_data: dict[int, np.ndarray] = {}
        #: lifetime counters
        self.pages_out = 0
        self.pages_in = 0

    @property
    def used(self) -> int:
        """Slots currently holding swapped pages."""
        return self._bump - len(self._free)

    def alloc_slots(self, count: int) -> np.ndarray:
        """Reserve ``count`` swap slots."""
        if count > self.capacity - self.used:
            raise SyscallError(Errno.ENOMEM, "swap space exhausted")
        out = np.empty(count, dtype=np.int64)
        take = min(count, len(self._free))
        if take:
            out[:take] = self._free[len(self._free) - take :]
            del self._free[len(self._free) - take :]
        fresh = count - take
        if fresh:
            out[take:] = np.arange(self._bump, self._bump + fresh)
            self._bump += fresh
        return out

    def free_slots(self, slots: np.ndarray) -> None:
        """Release slots after swap-in."""
        self._free.extend(int(s) for s in slots)
        for s in slots:
            self.slot_data.pop(int(s), None)

    def io_event(self, npages: int):
        """Event for transferring ``npages`` through the device.

        The per-operation latency (seek + command) is folded in as
        equivalent bytes at device speed, so concurrent requests share
        the spindle fairly.
        """
        nbytes = float(npages * PAGE_SIZE)
        return self.channel.transfer(
            nbytes + self.op_latency_us * self.channel.capacity
        )


def attach_swap(kernel: Kernel, device: Optional[SwapDevice] = None) -> SwapDevice:
    """Give a kernel a swap device (idempotent; returns it)."""
    if kernel.swap is None:
        kernel.swap = device or SwapDevice(kernel.env)
    return kernel.swap


def swapped_pages(vma: Vma) -> np.ndarray:
    """Indices of pages of ``vma`` currently on swap."""
    return np.flatnonzero(vma.pt.swap >= 0)


def sys_swap_out(kernel: Kernel, thread: "SimThread", addr: int, nbytes: int):
    """Forcibly swap out a range (the primitive Linux never offered).

    Populated pages are written to the swap device, their frames freed
    and their PTEs left pointing at swap slots. Returns pages written.
    """
    device = kernel.swap
    if device is None:
        raise SyscallError(Errno.ENODEV, "no swap device attached")
    process = thread.process
    written = 0
    yield process.mmap_sem.acquire_read()
    try:
        for vma, first, stop in process.addr_space.range_segments(addr, nbytes):
            if vma.shared:
                raise SyscallError(Errno.EINVAL, "swap-out of shared mappings unsupported")
            if vma.mlocked:
                raise SyscallError(Errno.EPERM, "range is mlocked")
            idxs = np.arange(first, stop, dtype=np.int64)
            idxs = idxs[vma.pt.frame[idxs] >= 0]
            if idxs.size == 0:
                continue
            slots = device.alloc_slots(int(idxs.size))
            frames = vma.pt.frame[idxs].copy()
            if kernel.track_contents:
                for frame, slot in zip(frames, slots):
                    data = kernel.page_data.pop(int(frame), None)
                    if data is not None:
                        device.slot_data[int(slot)] = data
            src_nodes = vma.pt.node[idxs].copy()
            # One run-granular swap-out op per segment, covering every
            # page written.
            kernel.stats.pages_swapped_out += int(idxs.size)
            kernel.stats.record_run("swap_out", int(idxs.size))
            # Write to disk, then tear down the mappings.
            t0 = kernel.env.now
            yield device.io_event(int(idxs.size))
            kernel.ledger.add("swap.out", kernel.env.now - t0)
            if tracepoints.active(kernel):
                for src in np.unique(src_nodes):
                    tracepoints.emit(
                        "swap:out",
                        kernel,
                        pid=process.pid,
                        vma=vma.start,
                        node=int(src),
                        pages=int(np.count_nonzero(src_nodes == src)),
                    )
            vma.pt.unmap_pages(idxs)
            vma.pt.set_swap(idxs, slots)
            kernel.release_frames(frames)
            device.pages_out += int(idxs.size)
            written += int(idxs.size)
            yield kernel.tlb_shootdown(process, thread.core, tag="swap.out")
    finally:
        process.mmap_sem.release_read()
    return written


def swap_in_batch(kernel: Kernel, thread: "SimThread", vma: Vma, idxs: np.ndarray):
    """Fault swapped pages back in — on the *toucher's* node.

    This is where the rejected design's next-touch effect happens; it
    is also where the storage subsystem makes it slow.
    """
    device = kernel.swap
    idxs = idxs[vma.pt.swap[idxs] >= 0]
    if idxs.size == 0:
        return
    process = thread.process
    ptl = process.ptl(vma.start, int(idxs[0]))
    yield ptl.acquire()
    try:
        idxs = idxs[vma.pt.swap[idxs] >= 0]  # re-check under the lock
        if idxs.size == 0:
            return
        k = int(idxs.size)
        dest = kernel.machine.node_of_core(thread.core)
        frames = kernel.alloc_on(dest, k)
        slots = vma.pt.swap[idxs]
        if kernel.track_contents:
            for frame, slot in zip(frames, slots):
                data = device.slot_data.get(int(slot))
                if data is not None:
                    kernel.page_data[int(frame)] = data
        vma.pt.map_pages(idxs, frames, np.full(k, dest, dtype=np.int16), vma.allows(True))
        vma.pt.set_swap(idxs, -1)
        device.free_slots(slots)
        device.pages_in += k
        kernel.stats.pages_swapped_in += k
        kernel.stats.record_run("swap_in", k)
        if tracepoints.active(kernel):
            tracepoints.emit(
                "swap:in", kernel, pid=process.pid, vma=vma.start, node=int(dest), pages=k
            )
        yield kernel.charge("swap.in.fault", kernel.cost.fault_entry_us * k)
        t0 = kernel.env.now
        yield device.io_event(k)
        kernel.ledger.add("swap.in", kernel.env.now - t0)
    finally:
        ptl.release()
