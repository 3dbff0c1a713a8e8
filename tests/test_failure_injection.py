"""Failure injection: exhaustion mid-operation must leave sane state."""

import numpy as np
import pytest

from conftest import drive
from repro import Machine, Madvise, MemPolicy, PROT_RW, System
from repro.check import assert_invariants
from repro.errors import OutOfMemory
from repro.util import PAGE_SIZE


def cramped(node_pages=32):
    """A machine whose nodes are nearly too small to migrate into."""
    return System(Machine.symmetric(2, 2, mem_per_node=node_pages * PAGE_SIZE))


def test_nt_migration_oom_leaves_consistent_state():
    """Next-touch migration that runs the destination node out of
    frames raises — and the not-yet-migrated pages keep their frames
    and their NT marks (nothing is lost or leaked). The failed batch
    releases its page-table lock, so a retry after frames come back
    migrates the rest."""
    system = cramped(32)
    proc = system.create_process("oom-nt")
    shared = {}

    def owner(t):
        # 24 pages on node 0...
        buf = yield from t.mmap(24 * PAGE_SIZE, PROT_RW, policy=MemPolicy.bind(0))
        yield from t.touch(buf, 24 * PAGE_SIZE)
        # ...and node 1 pre-filled so only 8 frames remain there.
        filler = yield from t.mmap(24 * PAGE_SIZE, PROT_RW, policy=MemPolicy.bind(1))
        yield from t.touch(filler, 24 * PAGE_SIZE)
        yield from t.madvise(buf, 24 * PAGE_SIZE, Madvise.NEXTTOUCH)
        shared.update(buf=buf, filler=filler)

    drive(system, owner, core=0, process=proc)

    def toucher(t):
        yield from t.touch(shared["buf"], 24 * PAGE_SIZE, bytes_per_page=64, batch=4)

    thread = system.spawn(proc, 2, toucher)  # node 1: only 8 frames free
    with pytest.raises(OutOfMemory):
        system.run_to(thread.join())
    # Consistency: every page still has exactly one frame somewhere.
    assert_invariants(system.kernel)
    vma = proc.addr_space.find_vma(shared["buf"])
    assert vma.pt.populated().all()
    hist = proc.addr_space.node_histogram()
    assert hist.sum() == 48  # 24 buf + 24 filler, nothing leaked
    # The pages that made it over are exactly node 1's last frames.
    assert 0 < vma.pt.node_histogram(2)[1] <= 8
    # Unmigrated pages still carry their next-touch mark.
    assert vma.pt.next_touch().any()
    # No frame went missing from the allocators.
    used = sum(a.used for a in system.kernel.allocators)
    assert used == 48

    def unmap_filler(t):
        yield from t.munmap(shared["filler"], 24 * PAGE_SIZE)

    drive(system, unmap_filler, core=0, process=proc)
    thread = system.spawn(proc, 2, toucher)
    system.run_to(thread.join())
    vma = proc.addr_space.find_vma(shared["buf"])
    assert vma.pt.node_histogram(2)[1] == 24
    assert not vma.pt.next_touch().any()
    assert_invariants(system.kernel)


def test_demand_zero_batch_oom_releases_the_ptl():
    """A batched first touch that runs its node out of frames raises
    and releases the page-table lock: once frames are freed, touching
    the rest of the buffer completes instead of deadlocking."""
    system = cramped(16)
    proc = system.create_process("oom-dz")
    shared = {}

    def first_touch(t):
        buf = yield from t.mmap(24 * PAGE_SIZE, PROT_RW, policy=MemPolicy.bind(0))
        shared["buf"] = buf
        yield from t.touch(buf, 24 * PAGE_SIZE, batch=8)

    thread = system.spawn(proc, 0, first_touch)
    with pytest.raises(OutOfMemory):
        system.run_to(thread.join())
    buf = shared["buf"]
    vma = proc.addr_space.find_vma(buf)
    assert vma.pt.populated().sum() == 16

    def retry(t):
        yield from t.madvise(buf, 8 * PAGE_SIZE, Madvise.DONTNEED)
        yield from t.touch(buf + 16 * PAGE_SIZE, 8 * PAGE_SIZE, batch=8)

    drive(system, retry, core=0, process=proc)
    populated = vma.pt.populated()
    assert not populated[:8].any() and populated[8:].all()
    assert system.kernel.allocators[0].used == 16
    assert_invariants(system.kernel)


def test_move_pages_oom_mid_request():
    """Synchronous migration into a full node fails part-way; moved
    pages stay moved, the rest stay put, frames conserved."""
    system = cramped(32)
    proc = system.create_process("oom-mv")

    def body(t):
        buf = yield from t.mmap(24 * PAGE_SIZE, PROT_RW, policy=MemPolicy.bind(0))
        yield from t.touch(buf, 24 * PAGE_SIZE)
        filler = yield from t.mmap(28 * PAGE_SIZE, PROT_RW, policy=MemPolicy.bind(1))
        yield from t.touch(filler, 28 * PAGE_SIZE)
        yield from t.move_range(buf, 24 * PAGE_SIZE, 1)  # only 4 free

    thread = system.spawn(proc, 0, body)
    with pytest.raises(OutOfMemory):
        system.run_to(thread.join())
    assert_invariants(system.kernel)
    assert sum(a.used for a in system.kernel.allocators) == 52
    assert proc.addr_space.node_histogram().sum() == 52


def test_fork_then_oom_cow_break():
    """COW breaking under memory pressure: the failed writer's state
    stays readable; the sibling is unaffected."""
    system = System(
        Machine.symmetric(2, 2, mem_per_node=16 * PAGE_SIZE),
        track_contents=True,
    )
    parent = system.create_process("p")
    box = {}

    def setup(t):
        addr = yield from t.mmap(10 * PAGE_SIZE, PROT_RW)
        yield from t.touch(addr, 10 * PAGE_SIZE)
        yield from t.write_bytes(addr, b"SAFE")
        child = yield from t.fork()
        box.update(addr=addr, child=child)

    thread = system.spawn(parent, 0, setup)
    system.run_to(thread.join())
    child = box["child"]

    def child_writer(t):
        # Node 0 has 16 - 10 = 6 frames left; breaking 10 COW pages
        # locally must run out part-way.
        yield from t.touch(box["addr"], 10 * PAGE_SIZE, write=True)

    w = system.spawn(child, 0, child_writer)
    with pytest.raises(OutOfMemory):
        system.run_to(w.join())
    # Parent's data is intact despite the child's failed writes.
    def parent_reader(t):
        data = yield from t.read_bytes(box["addr"], 4)
        return bytes(data)

    r = system.spawn(parent, 1, parent_reader)
    assert system.run_to(r.join()) == b"SAFE"
    assert_invariants(system.kernel)
