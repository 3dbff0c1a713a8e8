"""One first-touch placement rule: per-page faults, fault batches and
``mbind(MPOL_MF_MOVE)`` agree on which node each page gets.

The per-page fault (``batch=1``) is the reference: a batch lands
exactly where that many back-to-back single-page faults put it, and a
batch that cannot seat a page raises with nothing committed. Interleave
strides over a page's offset in its mapping (``vma.pgoff + idx``), so a
split does not move where later pages land.
"""

import pytest

from repro import PROT_READ, PROT_RW, Machine, MemPolicy, System
from repro.check import assert_invariants
from repro.errors import OutOfMemory
from repro.ext.hugepages import huge_fault_in, mmap_huge
from repro.util import PAGE_SIZE

BATCHES = (1, 8, 512)


def run(system, body, core=0, allowed=None):
    """Run ``body`` on a new process; returns the process, after
    checking every kernel invariant."""
    process = system.create_process("p")
    process.allowed_mems = allowed
    system.run_to(system.spawn(process, core, body).join())
    assert_invariants(system.kernel)
    return process


def nodes_of(process):
    return [n for vma in process.addr_space.vmas for n in vma.pt.node.tolist()]


def touch_all(npages, policy=None, batch=1):
    def body(t):
        addr = yield from t.mmap(npages * PAGE_SIZE, PROT_RW, policy=policy)
        yield from t.touch(addr, npages * PAGE_SIZE, batch=batch)

    return body


@pytest.mark.parametrize("batch", BATCHES)
def test_full_local_node_spills_like_per_page_faults(batch):
    """96 pages touched from node 0 of a 2 x 64-frame machine spill 32
    pages to node 1."""
    system = System(Machine.symmetric(2, 2, mem_per_node=64 * PAGE_SIZE))
    process = run(system, touch_all(96, batch=batch))
    assert nodes_of(process) == [0] * 64 + [1] * 32
    table = system.kernel.numastat.as_table()
    assert table["numa_hit"] == [64, 0]
    assert table["numa_miss"] == [0, 32]
    assert table["numa_foreign"] == [32, 0]


@pytest.mark.parametrize("batch", BATCHES)
def test_cpuset_narrowed_interleave_places_like_per_page_faults(batch):
    """interleave(0, 1, 2) under mems (0, 2) takes each page's
    first allowed candidate."""
    system = System(Machine.symmetric(3, 2))
    process = run(
        system, touch_all(6, MemPolicy.interleave(0, 1, 2), batch), allowed=(0, 2)
    )
    assert nodes_of(process) == [0, 0, 2, 0, 0, 2]


@pytest.mark.parametrize("batch", BATCHES)
def test_interleave_past_a_full_node_places_like_per_page_faults(batch):
    """interleave(0, 1, 2) with node 2 full falls through to
    the next candidate, and numastat books every page once."""
    system = System(Machine.symmetric(3, 2, mem_per_node=16 * PAGE_SIZE))
    run(system, touch_all(16, MemPolicy.bind(2)), core=4)
    process = run(system, touch_all(6, MemPolicy.interleave(0, 1, 2), batch))
    assert nodes_of(process) == [0, 1, 0, 0, 1, 0]
    stat = system.kernel.numastat
    assert stat.numa_miss == [2, 0, 0] and stat.numa_foreign == [0, 0, 2]
    assert sum(stat.numa_hit) + sum(stat.numa_miss) == 22


@pytest.mark.parametrize("batch", (1, 8))
@pytest.mark.parametrize("split", (False, True))
def test_interleave_strides_over_the_mapping_offset(batch, split):
    """Pages 3-7 of an interleave(0, 1, 2, 3) mapping land on
    the same nodes whether or not an mprotect split the mapping at
    page 3 first."""
    system = System(Machine.symmetric(4, 2))

    def body(t):
        addr = yield from t.mmap(8 * PAGE_SIZE, PROT_RW, policy=MemPolicy.interleave(0, 1, 2, 3))
        if split:
            yield from t.mprotect(addr, 3 * PAGE_SIZE, PROT_READ)
        yield from t.touch(addr + 3 * PAGE_SIZE, 5 * PAGE_SIZE, batch=batch)

    process = run(system, body)
    assert len(process.addr_space.vmas) == (2 if split else 1)
    assert nodes_of(process)[3:] == [3, 0, 1, 2, 3]


def test_huge_fault_books_numastat():
    """A huge fault books its pages as hits on its node."""
    system = System(Machine.symmetric(2, 2))

    def body(t):
        addr = yield from mmap_huge(t, 4 << 20)
        yield from huge_fault_in(t, addr, 4 << 20, node=1)

    run(system, body)
    assert system.kernel.stats.pages_first_touched == 1024
    assert system.kernel.numastat.numa_hit == [0, 1024]


@pytest.mark.parametrize("batch", (8, 512))
def test_batch_that_cannot_seat_a_page_commits_nothing(batch):
    """A bound batch larger than its node raises before it allocates
    (the per-page path commits the pages before the failing one)."""
    system = System(Machine.symmetric(2, 2, mem_per_node=16 * PAGE_SIZE))
    process = system.create_process("p")
    thread = system.spawn(process, 0, touch_all(24, MemPolicy.bind(1), batch=batch))
    with pytest.raises(OutOfMemory, match="policy bind nodes"):
        system.run_to(thread.join())
    assert_invariants(system.kernel)
    # Batches of 8 seat pages 0-15 and fail whole on pages 16-23.
    placed = nodes_of(process).count(1)
    assert placed == (16 if batch == 8 else 0)
    assert system.kernel.stats.pages_first_touched == placed


def test_mbind_move_mid_stride_uses_the_mapping_offset():
    """``mbind(interleave, MPOL_MF_MOVE)`` over pages 3-7 of an 8-page
    mapping splits it at page 3: each page moves to the node a first
    touch would give it at its offset in the mapping, the same node the
    untouched page 7 then gets on first touch."""
    system = System(Machine.symmetric(4, 2))
    policy = MemPolicy.interleave(0, 1, 2, 3)

    def body(t):
        addr = yield from t.mmap(8 * PAGE_SIZE, PROT_RW)
        yield from t.touch(addr, 7 * PAGE_SIZE)  # pages 0-6 on node 0
        moved = yield from t.mbind(addr + 3 * PAGE_SIZE, 5 * PAGE_SIZE, policy, move=True)
        yield from t.touch(addr + 7 * PAGE_SIZE, PAGE_SIZE)
        return moved

    process = system.create_process("p")
    thread = system.spawn(process, 0, body)
    moved = system.run_to(thread.join())
    assert_invariants(system.kernel)
    assert [vma.pgoff for vma in process.addr_space.vmas] == [0, 3]
    assert nodes_of(process) == [0, 0, 0, 3, 0, 1, 2, 3]
    assert moved == 3  # page 4 already sat on node 0


def test_mbind_move_over_a_re_merged_range_moves_the_live_pages():
    """An mbind whose range merges back into its neighbours (same
    policy) migrates the pages of the merged mapping, not of the
    split-off pieces the merge replaced."""
    system = System(Machine.symmetric(2, 2))

    def body(t):
        addr = yield from t.mmap(8 * PAGE_SIZE, PROT_RW)
        yield from t.touch(addr, 8 * PAGE_SIZE)
        yield from t.mbind(addr, 8 * PAGE_SIZE, MemPolicy.bind(1))
        return (
            yield from t.mbind(addr + 2 * PAGE_SIZE, 4 * PAGE_SIZE, MemPolicy.bind(1), move=True)
        )

    process = system.create_process("p")
    moved = system.run_to(system.spawn(process, 0, body).join())
    assert_invariants(system.kernel)
    assert moved == 4
    assert len(process.addr_space.vmas) == 1
    assert nodes_of(process) == [0, 0, 1, 1, 1, 1, 0, 0]
