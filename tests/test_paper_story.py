"""The paper's abstract, as one executable test per claim.

Each test here asserts one sentence of the paper at reduced scale —
an end-to-end safety net that the reproduction keeps telling the same
story as the figure and table shapes in ``tests/test_paper_claims.py``,
even after refactors.
"""

import pytest

from repro import Madvise, MemPolicy, PROT_RW, System
from repro.experiments.fig5_nexttouch import measure_kernel_nt, measure_user_nt
from repro.experiments.fig7_scalability import measure_parallel_migration
from repro.util import PAGE_SIZE, mb_per_s


def test_claim_move_pages_patch_restores_linearity():
    """'We were able to restore a linear behavior ... enables
    buffer-size independent migration throughput.'"""

    def throughput(npages, patched):
        system = System()
        proc = system.create_process("claim1")

        def body(t):
            nbytes = npages * PAGE_SIZE
            addr = yield from t.mmap(nbytes, PROT_RW, policy=MemPolicy.bind(0))
            yield from t.touch(addr, nbytes)
            t0 = system.now
            yield from t.move_range(addr, nbytes, 1, patched=patched)
            return mb_per_s(nbytes, system.now - t0)

        thread = system.spawn(proc, 0, body)
        return system.run_to(thread.join())

    # Patched: size-independent (within 10 % between 1k and 8k pages).
    p1, p8 = throughput(1024, True), throughput(8192, True)
    assert abs(p8 - p1) / p1 < 0.10
    # Unpatched: collapses by >4x over the same range.
    u1, u8 = throughput(1024, False), throughput(8192, False)
    assert u8 < u1 / 4


def test_claim_kernel_nt_faster_than_user_nt():
    """'Our kernel-based implementation appears 30% faster than the
    user-space model and has a much lower base overhead when migrating
    small buffers.'"""
    large = 2048
    user = measure_user_nt(large, patched=True)
    kernel = measure_kernel_nt(large)
    assert user / kernel > 1.25  # >= ~30 % faster at large sizes
    small = 8
    user_s = measure_user_nt(small, patched=True)
    kernel_s = measure_kernel_nt(small)
    assert user_s / kernel_s > 4  # "much lower base overhead"


def test_claim_lazy_migration_parallelizes():
    """'...enables the idea of high-performance Lazy memory migration
    that can be easily parallelized.'"""
    one = measure_parallel_migration(8192, 1, "lazy")
    four = measure_parallel_migration(8192, 4, "lazy")
    assert four < one / 1.3


def test_claim_next_touch_maintains_affinity_dynamically():
    """'...provide multithreaded applications with an easy way to
    dynamically maintain thread-data affinity': after each of several
    scheduling changes, one madvise re-establishes full locality."""
    system = System()
    proc = system.create_process("affinity")
    N = 64 * PAGE_SIZE

    def body(t):
        addr = yield from t.mmap(N, PROT_RW)
        yield from t.touch(addr, N)
        locality = []
        for core in (5, 10, 15, 0):  # the scheduler keeps moving us
            yield from t.madvise(addr, N, Madvise.NEXTTOUCH)
            yield from t.migrate_to(core)
            yield from t.touch(addr, N, bytes_per_page=64)
            hist = proc.addr_space.node_histogram()
            locality.append(hist[t.node] / hist.sum())
        return locality

    thread = system.spawn(proc, 0, body)
    locality = system.run_to(thread.join())
    assert all(frac == 1.0 for frac in locality)


def test_claim_lu_improvement_for_large_worksets():
    """'...the Next-touch approach benefits the overall performance as
    soon as large worksets are involved' (and hurts below the
    page-independence threshold)."""
    from repro.apps.lu import ThreadedLU

    def improvement(n, b):
        times = {}
        for policy in ("static", "nexttouch"):
            system = System()
            times[policy] = ThreadedLU(system, n, b, policy=policy).run().elapsed_s
        return (times["static"] / times["nexttouch"] - 1) * 100

    assert improvement(2048, 512) > 15  # large, page-independent: wins
    assert improvement(2048, 64) < 0  # small, page-sharing: loses


def test_claim_no_useless_migration():
    """'There is thus no useless migration (unaccessed buffers are not
    touched and therefore not migrated)...'"""
    system = System()
    proc = system.create_process("useless")

    def body(t):
        hot = yield from t.mmap(16 * PAGE_SIZE, PROT_RW, name="hot")
        cold = yield from t.mmap(16 * PAGE_SIZE, PROT_RW, name="cold")
        yield from t.touch(hot, 16 * PAGE_SIZE)
        yield from t.touch(cold, 16 * PAGE_SIZE)
        for addr in (hot, cold):
            yield from t.madvise(addr, 16 * PAGE_SIZE, Madvise.NEXTTOUCH)
        yield from t.migrate_to(9)  # node 2
        yield from t.touch(hot, 16 * PAGE_SIZE, bytes_per_page=64)
        # `cold` is never accessed again.
        return proc.addr_space.node_histogram().tolist()

    thread = system.spawn(proc, 0, body)
    hist = system.run_to(thread.join())
    assert hist == [16, 0, 16, 0]  # cold stayed, hot followed
    assert system.kernel.stats.pages_migrated == 16


def test_claim_scheduler_needs_no_buffer_knowledge():
    """'...the thread scheduler does not have to know which buffers
    are attached to which thread': marking the WHOLE address space
    still migrates only what each thread really uses."""
    system = System()
    proc = system.create_process("noknowledge")
    buffers = {}

    def setup(t):
        for name in ("a", "b"):
            addr = yield from t.mmap(8 * PAGE_SIZE, PROT_RW, name=name)
            yield from t.touch(addr, 8 * PAGE_SIZE)
            buffers[name] = addr
        # Blanket marking, no affinity database anywhere:
        for addr in buffers.values():
            yield from t.madvise(addr, 8 * PAGE_SIZE, Madvise.NEXTTOUCH)

    t0 = system.spawn(proc, 0, setup)
    system.run_to(t0.join())

    def user_of(name, core):
        def body(t):
            yield from t.touch(buffers[name], 8 * PAGE_SIZE, bytes_per_page=64)

        return body

    ta = system.spawn(proc, 6, user_of("a", 6))  # node 1
    tb = system.spawn(proc, 14, user_of("b", 14))  # node 3
    system.run_to(ta.join())
    system.run_to(tb.join())
    hist = proc.addr_space.node_histogram().tolist()
    assert hist == [0, 8, 0, 8]  # each buffer found its own user
