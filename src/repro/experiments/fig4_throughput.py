"""Figure 4: migration and memory-copy throughput, node #0 -> node #1.

Four curves over 1..16384 4-KiB pages:

* ``memcpy`` — user-space copy between pre-faulted buffers on the two
  nodes (the hardware reference, ~1.8 GB/s);
* ``migrate_pages`` — whole-process migration (~400 µs base, ~780 MB/s);
* ``move_pages`` — the patched, linear implementation (~160 µs base,
  ~600 MB/s, buffer-size independent);
* ``move_pages (no patch)`` — the pre-2.6.29 quadratic implementation,
  collapsing beyond ~1k pages.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..kernel.mempolicy import MemPolicy
from ..kernel.vma import PROT_RW
from ..util.units import PAGE_SIZE, mb_per_s
from .common import ExperimentResult, default_page_counts, fresh_system, run_thread

__all__ = ["run", "measure_point", "SERIES"]

SERIES = ("memcpy", "migrate_pages", "move_pages", "move_pages (no patch)")

#: Node #1 core used for nothing; the benchmark thread runs on node #0,
#: matching "migration ... between NUMA nodes #0 and #1".
_SRC_NODE, _DST_NODE = 0, 1


def _measure_memcpy(npages: int) -> float:
    system = fresh_system()

    def body(t):
        nbytes = npages * PAGE_SIZE
        src = yield from t.mmap(nbytes, PROT_RW, policy=MemPolicy.bind(_SRC_NODE), name="src")
        dst = yield from t.mmap(nbytes, PROT_RW, policy=MemPolicy.bind(_DST_NODE), name="dst")
        yield from t.touch(src, nbytes)
        yield from t.touch(dst, nbytes)
        t0 = system.now
        yield from t.memcpy(dst, src, nbytes)
        return system.now - t0

    return run_thread(system, body, core=0)


def _measure_move_pages(npages: int, patched: bool) -> float:
    system = fresh_system()

    def body(t):
        nbytes = npages * PAGE_SIZE
        buf = yield from t.mmap(nbytes, PROT_RW, policy=MemPolicy.bind(_SRC_NODE), name="buf")
        yield from t.touch(buf, nbytes)
        t0 = system.now
        yield from t.move_range(buf, nbytes, _DST_NODE, patched=patched)
        return system.now - t0

    return run_thread(system, body, core=0)


def _measure_migrate_pages(npages: int) -> float:
    system = fresh_system()

    def body(t):
        nbytes = npages * PAGE_SIZE
        buf = yield from t.mmap(nbytes, PROT_RW, policy=MemPolicy.bind(_SRC_NODE), name="buf")
        yield from t.touch(buf, nbytes)
        t0 = system.now
        yield from t.migrate_pages([_SRC_NODE], [_DST_NODE])
        return system.now - t0

    return run_thread(system, body, core=0)


def measure_point(npages: int) -> tuple[float, ...]:
    """One x of Figure 4: each series' throughput (MB/s), in ``SERIES`` order."""
    nbytes = npages * PAGE_SIZE
    return (
        mb_per_s(nbytes, _measure_memcpy(npages)),
        mb_per_s(nbytes, _measure_migrate_pages(npages)),
        mb_per_s(nbytes, _measure_move_pages(npages, True)),
        mb_per_s(nbytes, _measure_move_pages(npages, False)),
    )


def run(page_counts: Optional[Sequence[int]] = None, *, map_fn=map) -> ExperimentResult:
    """Regenerate Figure 4. Throughputs in MB/s per page count.

    ``map_fn`` maps :func:`measure_point` over the page counts in order;
    :func:`repro.experiments.parallel.run_sweep` passes a process pool's.
    """
    counts = list(page_counts) if page_counts else default_page_counts(1, 16384)
    result = ExperimentResult(
        experiment_id="fig4",
        title="Figure 4: migration and memcpy throughput, node #0 -> #1 (MB/s)",
        x_label="pages",
        xs=counts,
        series={name: [] for name in SERIES},
    )
    for values in map_fn(measure_point, counts):
        for name, value in zip(SERIES, values):
            result.series[name].append(value)
    result.notes.append(
        "paper targets: memcpy ~1800 MB/s, migrate_pages ~780 MB/s, "
        "move_pages ~600 MB/s flat, no-patch collapsing past ~1k pages"
    )
    return result
