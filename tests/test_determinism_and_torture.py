"""Determinism guarantees and mixed-operation torture tests."""

import numpy as np
import pytest

from conftest import drive
from repro import Madvise, MemPolicy, PROT_NONE, PROT_RW, System
from repro.check import assert_invariants
from repro.experiments.fig5_nexttouch import measure_kernel_nt
from repro.experiments.fig7_scalability import measure_parallel_migration
from repro.util import PAGE_SIZE


# ------------------------------------------------------------- determinism ---
def test_fig7_measurement_is_bit_identical():
    a = measure_parallel_migration(512, 3, "lazy")
    b = measure_parallel_migration(512, 3, "lazy")
    assert a == b


def test_fig5_measurement_is_bit_identical():
    assert measure_kernel_nt(128) == measure_kernel_nt(128)


def test_lu_run_is_bit_identical():
    from repro.apps.lu import ThreadedLU

    def once():
        system = System()
        return ThreadedLU(system, 1024, 256, policy="nexttouch", seed=3).run().elapsed_us

    assert once() == once()


def test_lu_shuffle_seed_changes_schedule_not_correctness():
    """Different shuffle seeds reorder work across nodes, but the
    numeric factorization stays exact every time."""
    from repro.apps.lu import ThreadedLU

    for seed in (1, 2, 3):
        system = System()
        lu = ThreadedLU(
            system, 512, 128, policy="nexttouch", seed=seed, numeric=True, num_threads=4
        )
        lu.run()
        assert lu.reconstruction_error() < 1e-8


# ----------------------------------------------------------------- torture ---
def test_sixteen_threads_mixed_operations(system):
    """Every core hammers its own buffer with a different op mix while
    sharing one address space; all invariants must hold throughout."""
    proc = system.create_process("torture")
    buffers = {}

    def setup(t):
        for core in range(16):
            addr = yield from t.mmap(16 * PAGE_SIZE, PROT_RW, name=f"b{core}")
            buffers[core] = addr

    drive(system, setup, core=0, process=proc)

    def worker(core):
        def body(t):
            addr = buffers[core]
            n = 16 * PAGE_SIZE
            yield from t.touch(addr, n)
            kind = core % 4
            if kind == 0:
                yield from t.move_range(addr, n, (t.node + 1) % 4)
            elif kind == 1:
                yield from t.madvise(addr, n, Madvise.NEXTTOUCH)
                yield from t.touch(addr, n, bytes_per_page=64)
            elif kind == 2:
                yield from t.mprotect(addr, n, PROT_NONE)
                yield from t.mprotect(addr, n, PROT_RW)
                yield from t.touch(addr, n, bytes_per_page=64)
            else:
                yield from t.mbind(addr, n, MemPolicy.bind(3))
                yield from t.madvise(addr, n, Madvise.DONTNEED)
                yield from t.touch(addr, n)

        return body

    threads = [system.spawn(proc, core, worker(core)) for core in range(16)]
    for t in threads:
        system.run_to(t.join())
    assert_invariants(system.kernel)
    hist = proc.addr_space.node_histogram()
    assert hist.sum() == 16 * 16  # every buffer fully populated


def test_frames_conserved_after_heavy_churn(system):
    proc = system.create_process("churn")
    baseline = [a.used for a in system.kernel.allocators]

    def body(t):
        for round_ in range(5):
            addr = yield from t.mmap(32 * PAGE_SIZE, PROT_RW)
            yield from t.touch(addr, 32 * PAGE_SIZE)
            yield from t.move_range(addr, 32 * PAGE_SIZE, (round_ + 1) % 4)
            yield from t.munmap(addr, 32 * PAGE_SIZE)

    drive(system, body, core=0, process=proc)
    assert [a.used for a in system.kernel.allocators] == baseline


def test_contents_survive_arbitrary_op_sequence():
    system = System(track_contents=True)
    proc = system.create_process("data")
    payload = np.arange(3 * PAGE_SIZE, dtype=np.uint8) % 251

    def body(t):
        addr = yield from t.mmap(3 * PAGE_SIZE, PROT_RW)
        yield from t.write_bytes(addr, payload)
        yield from t.move_range(addr, 3 * PAGE_SIZE, 1)
        yield from t.madvise(addr, 3 * PAGE_SIZE, Madvise.NEXTTOUCH)
        yield from t.migrate_to(10)
        yield from t.touch(addr, 3 * PAGE_SIZE)
        yield from t.mprotect(addr, 3 * PAGE_SIZE, PROT_NONE)
        yield from t.mprotect(addr, 3 * PAGE_SIZE, PROT_RW)
        yield from t.migrate_pages([2], [3])
        data = yield from t.read_bytes(addr, 3 * PAGE_SIZE)
        return bool((data == payload).all()), proc.addr_space.node_histogram().tolist()

    ok, hist = drive(system, body, core=0, process=proc)
    assert ok
    assert hist == [0, 0, 0, 3]  # ended on node 3 via migrate_pages
