"""Figure 7: threaded migration scalability, 1-4 threads on one node.

Threads bound to the cores of NUMA node #1 migrate a buffer resident
on node #0, each handling a contiguous share:

* **Sync** — every thread calls ``move_pages`` on its share;
* **Lazy** — the buffer is marked ``MADV_NEXTTOUCH`` and every thread
  touches its share, migrating page by page in its fault handler.

The paper's findings this must reproduce: no benefit from extra
threads below ~1 MiB (everything serializes on the same page-table
lock and the per-call base overhead); 50-60 % aggregate improvement at
4 threads for large buffers; lazy scaling slightly better, peaking
around 1.3 GB/s.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence

from ..kernel.mempolicy import MemPolicy
from ..kernel.syscalls import Madvise
from ..kernel.vma import PROT_RW
from ..util.units import PAGE_SIZE, mb_per_s
from .common import ExperimentResult, default_page_counts, fresh_system, run_thread

__all__ = ["run", "measure_point", "measure_parallel_migration"]

_SRC_NODE, _DST_NODE = 0, 1
_PROBE = 64


def measure_parallel_migration(
    npages: int, nthreads: int, strategy: str, *, system=None
) -> float:
    """Wall time (µs) for ``nthreads`` on node #1 to migrate the buffer.

    ``strategy`` is ``"sync"`` (move_pages) or ``"lazy"`` (kernel
    next-touch + touches).
    """
    if strategy not in ("sync", "lazy"):
        raise ValueError(f"unknown strategy {strategy!r}")
    system = system or fresh_system()
    cores = system.machine.cores_of_node(_DST_NODE)[:nthreads]
    if len(cores) < nthreads:
        raise ValueError(f"node {_DST_NODE} has only {len(cores)} cores")
    proc = system.create_process("fig7")
    nbytes = npages * PAGE_SIZE
    shared = {}

    def owner(t):
        addr = yield from t.mmap(nbytes, PROT_RW, policy=MemPolicy.bind(_SRC_NODE), name="buf")
        yield from t.touch(addr, nbytes)
        if strategy == "lazy":
            yield from t.madvise(addr, nbytes, Madvise.NEXTTOUCH)
        shared["addr"] = addr

    run_thread(system, owner, core=0, process=proc)

    # Contiguous per-thread shares (page-aligned).
    base, extra = divmod(npages, nthreads)
    shares = []
    start = 0
    for rank in range(nthreads):
        size = base + (1 if rank < extra else 0)
        shares.append((start, size))
        start += size

    def worker(rank):
        first, size = shares[rank]

        def body(t):
            if size == 0:
                return
            addr = shared["addr"] + first * PAGE_SIZE
            if strategy == "sync":
                yield from t.move_range(addr, size * PAGE_SIZE, _DST_NODE)
            else:
                yield from t.touch(addr, size * PAGE_SIZE, bytes_per_page=_PROBE)

        return body

    t0 = system.now
    threads = [
        system.spawn(proc, cores[rank], worker(rank), name=f"mig{rank}")
        for rank in range(nthreads)
    ]
    for t in threads:
        system.run_to(t.join())
    return system.now - t0


def measure_point(
    npages: int, thread_counts: Sequence[int] = (1, 2, 3, 4)
) -> tuple[float, ...]:
    """One x of Figure 7: aggregate throughput (MB/s), sync then lazy,
    each over ``thread_counts`` (the series order of :func:`run`)."""
    nbytes = npages * PAGE_SIZE
    return tuple(
        mb_per_s(nbytes, measure_parallel_migration(npages, k, strategy))
        for strategy in ("sync", "lazy")
        for k in thread_counts
    )


def run(
    page_counts: Optional[Sequence[int]] = None,
    thread_counts: Sequence[int] = (1, 2, 3, 4),
    *,
    map_fn=map,
) -> ExperimentResult:
    """Regenerate Figure 7. Aggregate throughput (MB/s) per series.

    ``map_fn`` maps :func:`measure_point` over the page counts in order;
    :func:`repro.experiments.parallel.run_sweep` passes a process pool's.
    """
    counts = list(page_counts) if page_counts else default_page_counts(64, 32768)
    series_names = [f"Sync - {k} Thread{'s' if k > 1 else ''}" for k in thread_counts]
    series_names += [f"Lazy - {k} Thread{'s' if k > 1 else ''}" for k in thread_counts]
    result = ExperimentResult(
        experiment_id="fig7",
        title="Figure 7: parallel sync vs lazy migration throughput (MB/s)",
        x_label="pages",
        xs=counts,
        series={name: [] for name in series_names},
    )
    point = partial(measure_point, thread_counts=thread_counts)
    for values in map_fn(point, counts):
        for name, value in zip(series_names, values):
            result.series[name].append(value)
    result.notes.append(
        "paper targets: flat below ~1 MiB; sync +50-60% at 4 threads; "
        "lazy slightly better, peaking ~1.3 GB/s"
    )
    return result
