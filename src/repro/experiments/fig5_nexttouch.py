"""Figure 5: next-touch migration throughput, 4..4096 pages.

Three curves: user-space next-touch with the unpatched and patched
``move_pages`` underneath, and the kernel next-touch implementation.
A buffer first-touched on node #0 is marked, then a thread on node #1
touches every page (one probe per page); the measured time is the
touch phase — i.e. what the lazy migration actually costs.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..kernel.mempolicy import MemPolicy
from ..kernel.syscalls import Madvise
from ..kernel.vma import PROT_RW
from ..nexttouch.user import UserNextTouch
from ..util.units import PAGE_SIZE, mb_per_s
from .common import ExperimentResult, default_page_counts, fresh_system, run_thread

__all__ = ["run", "SERIES", "measure_point", "measure_user_nt", "measure_kernel_nt"]

SERIES = ("User Next-touch (no move pages patch)", "User Next-touch", "Kernel Next-touch")

#: A 64-byte probe per page triggers the fault without streaming the page.
_PROBE = 64


def measure_user_nt(npages: int, patched: bool, *, system=None) -> float:
    """Mark+touch elapsed time (µs) for the user-space scheme."""
    system = system or fresh_system()
    proc = system.create_process("unt")
    unt = UserNextTouch(proc, patched_move_pages=patched)
    nbytes = npages * PAGE_SIZE
    shared = {}

    def owner(t):
        addr = yield from t.mmap(nbytes, PROT_RW, policy=MemPolicy.bind(0), name="buf")
        yield from t.touch(addr, nbytes)
        shared["addr"] = addr
        unt.register(addr, nbytes)

    run_thread(system, owner, core=0, process=proc)

    def toucher(t):
        system.kernel.ledger.reset()  # isolate the measured phase
        t0 = system.now
        yield from unt.mark(t)
        yield from t.touch(shared["addr"], nbytes, bytes_per_page=_PROBE)
        return system.now - t0

    return run_thread(system, toucher, core=4, process=proc)  # node 1


def measure_kernel_nt(npages: int, *, batch: int = 1, system=None) -> float:
    """Mark+touch elapsed time (µs) for the kernel scheme."""
    system = system or fresh_system()
    proc = system.create_process("knt")
    nbytes = npages * PAGE_SIZE
    shared = {}

    def owner(t):
        addr = yield from t.mmap(nbytes, PROT_RW, policy=MemPolicy.bind(0), name="buf")
        yield from t.touch(addr, nbytes)
        shared["addr"] = addr

    run_thread(system, owner, core=0, process=proc)

    def toucher(t):
        system.kernel.ledger.reset()  # isolate the measured phase
        t0 = system.now
        yield from t.madvise(shared["addr"], nbytes, Madvise.NEXTTOUCH)
        yield from t.touch(shared["addr"], nbytes, bytes_per_page=_PROBE, batch=batch)
        return system.now - t0

    return run_thread(system, toucher, core=4, process=proc)


def measure_point(npages: int) -> tuple[float, ...]:
    """One x of Figure 5: each series' throughput (MB/s), in ``SERIES`` order."""
    nbytes = npages * PAGE_SIZE
    return (
        mb_per_s(nbytes, measure_user_nt(npages, patched=False)),
        mb_per_s(nbytes, measure_user_nt(npages, patched=True)),
        mb_per_s(nbytes, measure_kernel_nt(npages)),
    )


def run(page_counts: Optional[Sequence[int]] = None, *, map_fn=map) -> ExperimentResult:
    """Regenerate Figure 5. Throughputs in MB/s per page count.

    ``map_fn`` maps :func:`measure_point` over the page counts in order;
    :func:`repro.experiments.parallel.run_sweep` passes a process pool's.
    """
    counts = list(page_counts) if page_counts else default_page_counts(4, 4096)
    result = ExperimentResult(
        experiment_id="fig5",
        title="Figure 5: next-touch migration throughput (MB/s)",
        x_label="pages",
        xs=counts,
        series={name: [] for name in SERIES},
    )
    for values in map_fn(measure_point, counts):
        for name, value in zip(SERIES, values):
            result.series[name].append(value)
    result.notes.append(
        "paper targets: kernel NT ~800 MB/s from small sizes; user NT "
        "climbing to ~600 MB/s (move_pages-bound); no-patch collapsing"
    )
    return result
