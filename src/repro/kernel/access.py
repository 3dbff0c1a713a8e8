"""User memory access: touching ranges, copying, reading/writing data.

``touch_range`` is what simulated application code calls to "use"
memory. It walks the range in address order, charges access time for
valid pages (NUMA-factor-aware, vectorized per node), and enters the
fault path for invalid ones — which is where first-touch allocation,
kernel next-touch migration and the user-space SIGSEGV scheme all
happen, exactly as a real load/store stream would trigger them.

Classification is *windowed*: each loop iteration inspects at most
:data:`_WINDOW` PTEs ahead instead of re-slicing the whole remaining
range, so a range of N pages costs O(N) array work rather than O(N²).
Run lengths computed through :func:`_run_scan` are exact prefix
lengths, so every charge and every fault batch is identical to what
the unwindowed walk produced.
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

import numpy as np

from ..errors import Errno, SegmentationFault, SimulationError, SyscallError
from ..util.units import PAGE_SHIFT, PAGE_SIZE
from .core import Kernel
from .fault import demand_zero_batch, demand_zero_run, handle_fault, nt_fault_batch
from .pagetable import PTE_COW, PTE_NEXTTOUCH, PTE_PRESENT, PTE_WRITE
from .runops import cow_break_run, nt_fault_run, swap_in_run

if TYPE_CHECKING:  # pragma: no cover
    from ..sched.thread import SimThread

__all__ = ["touch_range", "touch_pages", "memcpy_range", "write_bytes", "read_bytes"]

#: Abort if a single page keeps faulting this many times (a broken
#: signal handler would otherwise loop forever).
_MAX_RETRIES = 16

#: PTE-classification window: the walk looks at most this many pages
#: ahead per step, bounding per-iteration array work.
_WINDOW = 4096


def _access_cost_us(
    kernel: Kernel, thread_node: int, nodes: np.ndarray, bytes_per_page: float
) -> float:
    """Vectorized access time for resident pages grouped by node.

    A bincount-weighted sum against the cached per-source NUMA-factor
    row. Terms are accumulated in ascending node order with the same
    per-node expression the ``np.unique`` implementation used, so the
    result is bit-identical while skipping the O(n log n) sort.
    """
    if nodes.size == 0:
        return 0.0
    counts = np.bincount(nodes, minlength=kernel.machine.num_nodes)
    row = kernel.machine.numa_factor_row(thread_node)
    bw = kernel.cost.local_stream_bw
    total = 0.0
    for node in np.flatnonzero(counts):
        total += counts[node] * bytes_per_page * row[node] / bw
    return total


def _run_scan(
    idx: int, stop: int, cap: int, test: Callable[[int, int], np.ndarray]
) -> int:
    """Exact prefix length of ``test`` over ``[idx, min(stop, idx+cap))``.

    ``test(lo, hi)`` returns the boolean mask for that page window.
    Scanning proceeds in :data:`_WINDOW`-sized chunks, so a short run
    near the cursor never pays for the whole remaining range.
    """
    limit = min(stop, idx + cap)
    n = 0
    while idx + n < limit:
        lo = idx + n
        hi = min(limit, lo + _WINDOW)
        mask = test(lo, hi)
        r = int(np.argmin(mask)) if not mask.all() else int(mask.size)
        n += r
        if r < hi - lo:
            break
    return n


def touch_range(
    kernel: Kernel,
    thread: "SimThread",
    addr: int,
    nbytes: int,
    *,
    write: bool = True,
    bytes_per_page: Optional[float] = None,
    batch: int = 1,
    tag: str = "access",
):
    """Touch every page of ``[addr, addr + nbytes)`` in address order.

    ``bytes_per_page`` scales the access cost: ``None`` means the whole
    page is streamed; microbenchmarks that only probe one word per page
    (the classic way to trigger next-touch) pass a cache line.
    ``batch`` > 1 lets runs of migrate-on-next-touch pages be serviced
    in one batched fault sequence (see
    :func:`~repro.kernel.fault.nt_fault_batch`).
    """
    if nbytes <= 0:
        raise SyscallError(Errno.EINVAL, "touch of non-positive length")
    if batch < 1:
        raise SimulationError("batch must be >= 1")
    bpp = PAGE_SIZE if bytes_per_page is None else float(bytes_per_page)
    end = addr + nbytes
    pos = addr & ~(PAGE_SIZE - 1)
    retries = 0
    need_bits = PTE_PRESENT | (PTE_WRITE if write else 0)
    while pos < end:
        resolved = thread.process.addr_space.resolve(pos)
        if resolved is None or not resolved[0].allows(write):
            retries += 1
            if retries > _MAX_RETRIES:
                raise SegmentationFault(pos, write, "fault retry limit exceeded")
            yield from handle_fault(kernel, thread, pos, write)
            continue
        vma, idx = resolved
        pt = vma.pt
        stop = min(vma.npages, ((end - 1 - vma.start) >> PAGE_SHIFT) + 1)
        span = stop - idx
        first = int(pt.flags[idx])
        if first & need_bits == need_bits:
            run = _run_scan(
                idx, stop, span, lambda lo, hi: (pt.flags[lo:hi] & need_bits) == need_bits
            )
            nodes = pt.node[idx : idx + run]
            thread_node = kernel.machine.node_of_core(thread.core)
            if kernel.access_profiler is not None:
                kernel.access_profiler.record(
                    thread.process.pid, vma, idx, run, thread_node
                )
            cost = _access_cost_us(kernel, thread_node, np.asarray(nodes), bpp)
            if cost > 0:
                yield kernel.charge(tag, cost)
            pos = vma.addr_of_page(idx) + (run << PAGE_SHIFT)
            retries = 0
            continue
        # First page needs a fault. Batch consecutive next-touch or
        # consecutive unpopulated (first-touch) pages; swapped pages
        # take the precise per-page path (they need disk I/O anyway).
        nt0 = bool(first & PTE_NEXTTOUCH)
        unpop0 = not nt0 and int(pt.frame[idx]) < 0 and int(pt.swap[idx]) < 0

        def _marked(lo: int, hi: int) -> np.ndarray:
            return (pt.flags[lo:hi] & PTE_NEXTTOUCH) != 0

        def _fresh(lo: int, hi: int) -> np.ndarray:
            return (
                (pt.frame[lo:hi] < 0)
                & ((pt.flags[lo:hi] & PTE_NEXTTOUCH) == 0)
                & (pt.swap[lo:hi] < 0)
            )

        if batch > 1 and nt0:
            run = _run_scan(idx, stop, batch, _marked)
            yield from nt_fault_batch(
                kernel, thread, vma, np.arange(idx, idx + run, dtype=np.int64)
            )
        elif batch > 1 and unpop0:
            run = _run_scan(idx, stop, batch, _fresh)
            idx_run = np.arange(idx, idx + run, dtype=np.int64)
            if vma.file is not None:
                from .files import file_fault_batch

                yield from file_fault_batch(kernel, thread, vma, idx_run)
            else:
                yield from demand_zero_batch(kernel, thread, vma, idx_run)
        else:
            # Per-page (batch=1) fault storm: while the turbo gate holds,
            # a run-op replays the whole run of faults from this page
            # inline. ``turbo`` covers the faults plus the access charges
            # of all but the last faulted page (whose access merges with
            # the following valid run, exactly like the per-page walk);
            # the loop re-enters at that page. The gate is tested once,
            # before any run scan: on a busy queue a fault must not scan
            # the rest of its run only for the run-op to decline.
            turbo = None
            if kernel.turbo_ok():
                if nt0:
                    # Next-touch storm: migrate the run to this node.
                    run = _run_scan(idx, stop, span, _marked)
                    turbo = nt_fault_run(kernel, thread, vma, idx, run, bpp, tag)
                elif unpop0 and vma.file is None:
                    run = _run_scan(idx, stop, span, _fresh)
                    turbo = demand_zero_run(kernel, thread, vma, idx, run, bpp, tag)
                elif int(pt.frame[idx]) < 0 and int(pt.swap[idx]) >= 0:
                    # Swap-in storm: each page pays the device round-trip.

                    def _swapped(lo: int, hi: int) -> np.ndarray:
                        return (
                            (pt.frame[lo:hi] < 0)
                            & (pt.swap[lo:hi] >= 0)
                            & ((pt.flags[lo:hi] & PTE_NEXTTOUCH) == 0)
                        )

                    run = _run_scan(idx, stop, span, _swapped)
                    turbo = swap_in_run(kernel, thread, vma, idx, run, bpp, tag)
                elif (
                    write
                    and (first & (PTE_PRESENT | PTE_COW)) == (PTE_PRESENT | PTE_COW)
                    and vma.file is None
                ):
                    # Write storm over COW pages after a fork: break the
                    # whole run in one replay (reuse or copy per page).

                    def _cow(lo: int, hi: int) -> np.ndarray:
                        cow = PTE_PRESENT | PTE_COW
                        return ((pt.flags[lo:hi] & cow) == cow) & (pt.swap[lo:hi] < 0)

                    run = _run_scan(idx, stop, span, _cow)
                    turbo = cow_break_run(kernel, thread, vma, idx, run, bpp, tag)
            if turbo is not None:
                done, event = turbo
                yield event
                pos = vma.addr_of_page(idx) + (done << PAGE_SHIFT)
                retries = 0
                continue
            retries += 1
            if retries > _MAX_RETRIES:
                raise SegmentationFault(pos, write, "fault retry limit exceeded")
            yield from handle_fault(kernel, thread, pos, write)
        # Loop re-resolves: the fault (or a signal handler) may have
        # reshaped the VMA list.


def touch_pages(
    kernel: Kernel,
    thread: "SimThread",
    vma,
    idxs: np.ndarray,
    *,
    write: bool = True,
    bytes_per_page: float = 0.0,
    batch: int = 512,
    tag: str = "access",
):
    """Touch an arbitrary (sorted) set of pages of one VMA.

    The workhorse for strided access patterns — a b x b matrix block's
    page set is not contiguous, and calling :func:`touch_range` per
    page-run would cost a Python generator per matrix row. Faults are
    serviced in batches (next-touch migration and first-touch
    allocation both batch safely; see the fault module's atomic-commit
    discussion). The VMA must allow the access — this path carries no
    SIGSEGV machinery.

    A set whose pages all already carry the needed PTE bits (PRESENT,
    plus WRITE for a store) skips the fault classification and goes
    straight to the access charge. That is every static-policy LU block
    op, and every next-touch one once its pages have moved.
    """
    if not vma.allows(write):
        raise SegmentationFault(vma.start, write, "touch_pages on protected VMA")
    idxs = np.asarray(idxs, dtype=np.int64)
    if idxs.size == 0:
        return
    need_bits = PTE_PRESENT | (PTE_WRITE if write else 0)
    flags = vma.pt.flags[idxs]
    # Fault-free touch (every page already valid for this access): the
    # section below would find nothing, because PRESENT implies a frame
    # and NEXTTOUCH implies not PRESENT, so it is skipped outright.
    if not ((flags & need_bits) == need_bits).all():
        nt_sel = (flags & PTE_NEXTTOUCH) != 0
        unpop_sel = (vma.pt.frame[idxs] < 0) & ~nt_sel
        swapped_sel = unpop_sel & (vma.pt.swap[idxs] >= 0)
        unpop_sel &= ~swapped_sel
        if swapped_sel.any():
            from .swap import swap_in_batch

            pending = idxs[swapped_sel]
            for lo in range(0, pending.size, batch):
                yield from swap_in_batch(kernel, thread, vma, pending[lo : lo + batch])
        unpop_fault = demand_zero_batch
        if vma.file is not None:
            from .files import file_fault_batch

            unpop_fault = file_fault_batch
        for sel, fault in ((nt_sel, nt_fault_batch), (unpop_sel, unpop_fault)):
            pending = idxs[sel]
            for lo in range(0, pending.size, batch):
                yield from fault(kernel, thread, vma, pending[lo : lo + batch])
        # Whatever still lacks the permission bits now (e.g. read-only
        # PTEs on a writable VMA) goes through the precise per-page path.
        flags = vma.pt.flags[idxs]
        stale = idxs[(flags & need_bits) != need_bits]
        for idx in stale:
            yield from handle_fault(kernel, thread, vma.addr_of_page(int(idx)), write)
    if bytes_per_page > 0:
        thread_node = kernel.machine.node_of_core(thread.core)
        if kernel.access_profiler is not None:
            pid = thread.process.pid
            for idx in idxs:
                kernel.access_profiler.record(pid, vma, int(idx), 1, thread_node)
        cost = _access_cost_us(kernel, thread_node, vma.pt.node[idxs], bytes_per_page)
        if cost > 0:
            yield kernel.charge(tag, cost)


def memcpy_range(kernel: Kernel, thread: "SimThread", dst: int, src: int, nbytes: int):
    """User-space ``memcpy`` between two buffers.

    Faults both ranges in, then streams the data through the link
    fabric at user-copy rates (SSE-assisted, faster than the kernel's
    page copy — Figure 4's ``memcpy`` reference curve).
    """
    if nbytes <= 0:
        raise SyscallError(Errno.EINVAL, "memcpy of non-positive length")
    yield from touch_range(kernel, thread, src, nbytes, write=False, bytes_per_page=0.0)
    yield from touch_range(kernel, thread, dst, nbytes, write=True, bytes_per_page=0.0)
    cost = kernel.cost
    yield kernel.charge("memcpy.call", cost.memcpy_call_overhead_us)
    # Stream per (src_node, dst_node) pair at the user copy rate.
    src_seg = _node_runs(thread.process.addr_space, src, nbytes)
    dst_seg = _node_runs(thread.process.addr_space, dst, nbytes)
    t0 = kernel.env.now
    for (s_node, d_node), pair_bytes in _pair_bytes(src_seg, dst_seg).items():
        hops = max(
            kernel.machine.hops(s_node, d_node),
            1 if s_node != d_node else 0,
        )
        if s_node == d_node:
            yield kernel.env.timeout(pair_bytes / cost.local_stream_bw)
        else:
            rate = cost.memcpy_remote_bw / (1.0 + 0.2 * (hops - 1))
            yield kernel.fabric.transfer(s_node, d_node, pair_bytes, max_rate=rate)
    kernel.ledger.add("memcpy.copy", kernel.env.now - t0)


def _node_runs(addr_space, addr: int, nbytes: int) -> list[tuple[int, int]]:
    """(node, nbytes) runs covering a resident byte range."""
    runs: list[tuple[int, int]] = []
    for vma, first, stop in addr_space.range_segments(addr, nbytes):
        nodes = vma.pt.node[first:stop]
        if np.any(nodes < 0):
            raise SimulationError("memcpy over non-resident pages")
        counts = np.bincount(nodes)
        for node in np.flatnonzero(counts):
            runs.append((int(node), int(counts[node]) * PAGE_SIZE))
    return runs


def _pair_bytes(
    src_runs: list[tuple[int, int]], dst_runs: list[tuple[int, int]]
) -> dict[tuple[int, int], float]:
    """Apportion copied bytes over (src_node, dst_node) pairs."""
    total_src = sum(b for _, b in src_runs)
    total_dst = sum(b for _, b in dst_runs)
    total = float(min(total_src, total_dst))
    out: dict[tuple[int, int], float] = {}
    for s_node, s_bytes in src_runs:
        for d_node, d_bytes in dst_runs:
            share = (s_bytes / total_src) * (d_bytes / total_dst) * total
            if share > 0:
                out[(s_node, d_node)] = out.get((s_node, d_node), 0.0) + share
    return out


def write_bytes(kernel: Kernel, thread: "SimThread", addr: int, data: bytes | np.ndarray):
    """Store real bytes at ``addr`` (contents-tracking mode only).

    Touches the range (faulting as needed) and then updates the
    per-frame payloads, so tests can verify migration preserves data.
    """
    if not kernel.track_contents:
        raise SimulationError("write_bytes requires Kernel(track_contents=True)")
    buf = np.frombuffer(bytes(data), dtype=np.uint8) if isinstance(data, bytes) else data
    buf = np.asarray(buf, dtype=np.uint8)
    if buf.size == 0:
        return
    yield from touch_range(kernel, thread, addr, buf.size, write=True)
    _copy_payload(kernel, thread, addr, buf, store=True)


def read_bytes(kernel: Kernel, thread: "SimThread", addr: int, nbytes: int):
    """Load real bytes from ``addr`` (contents-tracking mode only).

    Returns the data as ``np.uint8`` array; untouched bytes read zero,
    as anonymous memory does.
    """
    if not kernel.track_contents:
        raise SimulationError("read_bytes requires Kernel(track_contents=True)")
    yield from touch_range(kernel, thread, addr, nbytes, write=False)
    out = np.zeros(nbytes, dtype=np.uint8)
    _copy_payload(kernel, thread, addr, out, store=False)
    return out


def _copy_payload(kernel: Kernel, thread: "SimThread", addr: int, buf: np.ndarray, store: bool):
    offset = 0
    addr_space = thread.process.addr_space
    while offset < buf.size:
        resolved = addr_space.resolve(addr + offset)
        if resolved is None:
            raise SegmentationFault(addr + offset, store, "payload over unmapped page")
        vma, idx = resolved
        frame = int(vma.pt.frame[idx])
        if frame < 0:
            raise SimulationError("payload access to page without frame")
        in_page = (addr + offset) & (PAGE_SIZE - 1)
        chunk = min(PAGE_SIZE - in_page, buf.size - offset)
        page = kernel.page_data.get(frame)
        if store:
            if page is None:
                page = np.zeros(PAGE_SIZE, dtype=np.uint8)
                kernel.page_data[frame] = page
            page[in_page : in_page + chunk] = buf[offset : offset + chunk]
        else:
            if page is not None:
                buf[offset : offset + chunk] = page[in_page : in_page + chunk]
        offset += chunk
