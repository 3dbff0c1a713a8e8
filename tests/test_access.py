"""Tests for the user memory-access paths (touch_range/touch_pages/memcpy)."""

import numpy as np
import pytest

from conftest import drive
from repro import Madvise, MemPolicy, PROT_READ, PROT_RW, System
from repro.errors import SegmentationFault, SimulationError, SyscallError
from repro.kernel.pagetable import PTE_COW, PTE_PRESENT, PTE_WRITE
from repro.kernel.swap import attach_swap, swapped_pages
from repro.util import PAGE_SIZE


def test_touch_spanning_two_vmas(system):
    """A range crossing a protection split is touched per segment."""

    def body(t):
        addr = yield from t.mmap(8 * PAGE_SIZE, PROT_RW, name="buf")
        yield from t.touch(addr, 8 * PAGE_SIZE)
        # Make the middle read-only: three VMAs now.
        yield from t.mprotect(addr + 2 * PAGE_SIZE, 2 * PAGE_SIZE, PROT_READ)
        yield from t.touch(addr, 8 * PAGE_SIZE, write=False)  # reads fine
        return len([v for v in t.process.addr_space.vmas if v.name == "buf"])

    assert drive(system, body) == 3


def test_touch_write_hits_readonly_middle(system):
    def body(t):
        addr = yield from t.mmap(4 * PAGE_SIZE, PROT_RW)
        yield from t.touch(addr, 4 * PAGE_SIZE)
        yield from t.mprotect(addr + PAGE_SIZE, PAGE_SIZE, PROT_READ)
        yield from t.touch(addr, 4 * PAGE_SIZE, write=True)

    with pytest.raises(SegmentationFault):
        drive(system, body)


def test_touch_unaligned_start_and_len(system):
    """Byte-granular ranges cover exactly the pages they overlap."""

    def body(t):
        addr = yield from t.mmap(4 * PAGE_SIZE, PROT_RW)
        yield from t.touch(addr + PAGE_SIZE + 100, PAGE_SIZE)  # pages 1 and 2
        return t.process.addr_space.find_vma(addr).pt.present().tolist()

    assert drive(system, body) == [False, True, True, False]


def test_touch_cost_scales_with_bytes_per_page(system):
    def measure(bpp):
        sys_ = System()

        def body(t):
            addr = yield from t.mmap(64 * PAGE_SIZE, PROT_RW)
            yield from t.touch(addr, 64 * PAGE_SIZE)
            t0 = sys_.now
            yield from t.touch(addr, 64 * PAGE_SIZE, bytes_per_page=bpp)
            return sys_.now - t0

        proc = sys_.create_process("m")
        thread = sys_.spawn(proc, 0, body)
        return sys_.run_to(thread.join())

    assert measure(4096) > measure(64) * 10


def test_touch_remote_costs_numa_factor(system):
    def measure(core):
        sys_ = System()

        def body(t):
            addr = yield from t.mmap(64 * PAGE_SIZE, PROT_RW, policy=MemPolicy.bind(0))
            yield from t.touch(addr, 64 * PAGE_SIZE, bytes_per_page=0)
            t0 = sys_.now
            yield from t.touch(addr, 64 * PAGE_SIZE)
            return sys_.now - t0

        proc = sys_.create_process("m")
        thread = sys_.spawn(proc, core, body)
        return sys_.run_to(thread.join())

    local = measure(0)  # node 0
    one_hop = measure(4)  # node 1
    two_hop = measure(12)  # node 3
    assert one_hop == pytest.approx(local * 1.2, rel=0.01)
    assert two_hop == pytest.approx(local * 1.4, rel=0.01)


def test_touch_rejects_bad_args(system):
    def body(t):
        addr = yield from t.mmap(PAGE_SIZE, PROT_RW)
        yield from t.touch(addr, 0)

    with pytest.raises(SyscallError):
        drive(system, body)

    def body2(t):
        addr = yield from t.mmap(PAGE_SIZE, PROT_RW)
        yield from t.touch(addr, PAGE_SIZE, batch=0)

    with pytest.raises(SimulationError):
        drive(system, body2)


def test_touch_pages_mixed_states(system):
    """One call handles resident + next-touch + unpopulated pages."""
    proc = system.create_process("mix")

    def body(t):
        addr = yield from t.mmap(12 * PAGE_SIZE, PROT_RW)
        vma = proc.addr_space.find_vma(addr)
        # populate the first 8, mark 4 of them NT, leave 4 untouched
        yield from t.touch(addr, 8 * PAGE_SIZE)
        yield from t.madvise(addr, 4 * PAGE_SIZE, Madvise.NEXTTOUCH)
        yield from t.migrate_to(5)  # node 1
        yield from t.touch_pages(vma, np.arange(12), batch=4)
        return (
            vma.pt.present().all(),
            proc.addr_space.node_histogram().tolist(),
        )

    all_present, hist = drive(system, body, core=0, process=proc)
    assert all_present
    # 4 migrated to node 1, 4 stayed on node 0, 4 fresh on node 1.
    assert hist == [4, 8, 0, 0]


def _forked_parent(system, npages=8):
    """A parent process whose ``npages`` touched pages a fork left
    PRESENT|COW without WRITE, plus the address and the parent's VMA."""
    proc = system.create_process("parent")
    box = {}

    def body(t):
        addr = yield from t.mmap(npages * PAGE_SIZE, PROT_RW)
        yield from t.touch(addr, npages * PAGE_SIZE)
        yield from t.fork()
        box["addr"] = addr

    drive(system, body, core=0, process=proc)
    vma = proc.addr_space.find_vma(box["addr"])
    assert ((vma.pt.flags & (PTE_PRESENT | PTE_COW | PTE_WRITE)) == PTE_PRESENT | PTE_COW).all()
    return proc, vma


def test_touch_pages_write_breaks_cow(checked_system):
    """Present pages without WRITE are not fault-free for a store:
    touch_pages must break copy-on-write on every one of them."""
    system = checked_system
    proc, vma = _forked_parent(system)
    shared_frames = vma.pt.frame.copy()

    def body(t):
        yield from t.touch_pages(vma, np.arange(8), write=True, bytes_per_page=64.0)

    drive(system, body, core=0, process=proc)
    flags = vma.pt.flags
    assert ((flags & PTE_WRITE) != 0).all()
    assert ((flags & PTE_COW) == 0).all()
    assert not np.isin(vma.pt.frame, shared_frames).any()  # the child keeps those
    assert system.kernel.ledger.total("cow.") > 0


def test_touch_pages_read_over_cow_does_not_fault(checked_system):
    """A load needs only PRESENT: a read of COW-shared pages leaves
    their flags and frames alone and enters no fault."""
    system = checked_system
    proc, vma = _forked_parent(system)
    flags, frames = vma.pt.flags.copy(), vma.pt.frame.copy()
    ledger = system.kernel.ledger
    entries = ledger.counts["fault.entry"]

    def body(t):
        yield from t.touch_pages(vma, np.arange(8), write=False, bytes_per_page=64.0)

    drive(system, body, core=0, process=proc)
    assert np.array_equal(vma.pt.flags, flags)
    assert np.array_equal(vma.pt.frame, frames)
    assert ledger.counts["fault.entry"] == entries
    assert ledger.counts["access"] > 0


def test_touch_pages_swaps_pages_back_in(checked_system, monkeypatch):
    """Swapped-out pages in the set come back through swap_in_batch,
    on the toucher's node, next to resident ones."""
    import repro.kernel.swap as swap

    system = checked_system
    attach_swap(system.kernel)
    proc = system.create_process("sw")
    calls = []
    original = swap.swap_in_batch

    def counted(kernel, thread, vma, idxs):
        calls.append(np.asarray(idxs).tolist())
        return original(kernel, thread, vma, idxs)

    monkeypatch.setattr(swap, "swap_in_batch", counted)

    def body(t):
        addr = yield from t.mmap(8 * PAGE_SIZE, PROT_RW, policy=MemPolicy.bind(0))
        yield from t.touch(addr, 8 * PAGE_SIZE)
        yield from t.swap_out(addr + 2 * PAGE_SIZE, 4 * PAGE_SIZE)
        vma = proc.addr_space.find_vma(addr)
        assert swapped_pages(vma).tolist() == [2, 3, 4, 5]
        yield from t.migrate_to(5)  # node 1
        yield from t.touch_pages(vma, np.arange(8), batch=3)
        return vma

    vma = drive(system, body, core=0, process=proc)
    assert calls == [[2, 3, 4], [5]]
    assert swapped_pages(vma).size == 0
    assert system.kernel.swap.used == 0
    assert vma.pt.present().all()
    assert vma.pt.node.tolist() == [0, 0, 1, 1, 1, 1, 0, 0]


def test_touch_pages_rejects_protected_vma(system):
    def body(t):
        addr = yield from t.mmap(2 * PAGE_SIZE, PROT_READ)
        vma = t.process.addr_space.find_vma(addr)
        yield from t.touch_pages(vma, np.arange(2), write=True)

    with pytest.raises(SegmentationFault):
        drive(system, body)


def test_touch_pages_empty_set_is_noop(system):
    def body(t):
        addr = yield from t.mmap(PAGE_SIZE, PROT_RW)
        vma = t.process.addr_space.find_vma(addr)
        yield from t.touch_pages(vma, np.empty(0, dtype=np.int64))
        return "ok"

    assert drive(system, body) == "ok"


def test_memcpy_requires_resident_source(system):
    def body(t):
        src = yield from t.mmap(2 * PAGE_SIZE, PROT_RW)
        dst = yield from t.mmap(2 * PAGE_SIZE, PROT_RW)
        # src untouched: memcpy faults it in (demand-zero) then copies.
        yield from t.memcpy(dst, src, 2 * PAGE_SIZE)
        return t.process.addr_space.resident_pages()

    assert drive(system, body) == 4


def test_memcpy_local_faster_than_remote(system):
    def measure(src_node, dst_node):
        sys_ = System()

        def body(t):
            n = 256 * PAGE_SIZE
            src = yield from t.mmap(n, PROT_RW, policy=MemPolicy.bind(src_node))
            dst = yield from t.mmap(n, PROT_RW, policy=MemPolicy.bind(dst_node))
            yield from t.touch(src, n, bytes_per_page=0)
            yield from t.touch(dst, n, bytes_per_page=0)
            t0 = sys_.now
            yield from t.memcpy(dst, src, n)
            return sys_.now - t0

        proc = sys_.create_process("cp")
        thread = sys_.spawn(proc, 0, body)
        return sys_.run_to(thread.join())

    assert measure(0, 0) < measure(0, 1)


def test_write_read_roundtrip_across_page_boundary():
    system = System(track_contents=True)

    def body(t):
        addr = yield from t.mmap(2 * PAGE_SIZE, PROT_RW)
        payload = bytes(range(200))
        yield from t.write_bytes(addr + PAGE_SIZE - 100, payload)
        data = yield from t.read_bytes(addr + PAGE_SIZE - 100, len(payload))
        return bytes(data) == payload

    assert drive(system, body) is True


def test_contents_mode_required():
    system = System(track_contents=False)

    def body(t):
        addr = yield from t.mmap(PAGE_SIZE, PROT_RW)
        yield from t.write_bytes(addr, b"x")

    with pytest.raises(SimulationError, match="track_contents"):
        drive(system, body)
