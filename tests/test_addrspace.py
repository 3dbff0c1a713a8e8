"""Unit tests for address spaces: mmap, splits, merges, mprotect."""

import numpy as np
import pytest

from repro import System
from repro.check import assert_invariants
from repro.errors import Errno, SyscallError
from repro.kernel.mempolicy import MemPolicy
from repro.kernel.vma import PROT_NONE, PROT_READ, PROT_RW
from repro.util import PAGE_SIZE


@pytest.fixture
def space():
    sys_ = System()
    proc = sys_.create_process("as")
    return proc.addr_space


def test_mmap_returns_page_aligned_disjoint_vmas(space):
    a = space.mmap(10 * PAGE_SIZE, PROT_RW, name="a")
    b = space.mmap(5 * PAGE_SIZE, PROT_RW, name="b")
    assert a.start % PAGE_SIZE == 0
    assert b.start >= a.end + PAGE_SIZE  # guard gap
    assert_invariants(space.kernel)


def test_mmap_rounds_up(space):
    vma = space.mmap(PAGE_SIZE + 1, PROT_RW)
    assert vma.npages == 2


def test_mmap_rejects_empty(space):
    with pytest.raises(SyscallError):
        space.mmap(0, PROT_RW)


def test_find_vma(space):
    vma = space.mmap(4 * PAGE_SIZE, PROT_RW)
    assert space.find_vma(vma.start) is vma
    assert space.find_vma(vma.start + 3 * PAGE_SIZE + 17) is vma
    assert space.find_vma(vma.end) is None
    assert space.find_vma(vma.start - 1) is None


def test_resolve(space):
    vma = space.mmap(4 * PAGE_SIZE, PROT_RW)
    got = space.resolve(vma.start + 2 * PAGE_SIZE + 5)
    assert got == (vma, 2)


def test_protection_split_and_merge(space):
    vma = space.mmap(10 * PAGE_SIZE, PROT_RW, name="buf")
    mid = vma.start + 3 * PAGE_SIZE
    space.apply_protection(mid, 4 * PAGE_SIZE, PROT_NONE)
    vmas = [v for v in space.vmas if v.name == "buf"]
    assert len(vmas) == 3
    assert [v.prot for v in vmas] == [PROT_RW, PROT_NONE, PROT_RW]
    assert [v.npages for v in vmas] == [3, 4, 3]
    # Restoring merges the three back into one.
    space.apply_protection(mid, 4 * PAGE_SIZE, PROT_RW)
    vmas = [v for v in space.vmas if v.name == "buf"]
    assert len(vmas) == 1
    assert vmas[0].npages == 10
    assert_invariants(space.kernel)


def test_protection_unmapped_range_enomem(space):
    vma = space.mmap(2 * PAGE_SIZE, PROT_RW)
    with pytest.raises(SyscallError) as exc:
        space.apply_protection(vma.start, 4 * PAGE_SIZE, PROT_NONE)
    assert exc.value.errno == Errno.ENOMEM


def test_protection_updates_hardware_bits(space):
    vma = space.mmap(4 * PAGE_SIZE, PROT_RW)
    frames = np.arange(4, dtype=np.int64)
    vma.pt.map_pages(slice(None), frames, np.zeros(4, dtype=np.int16), True)
    space.apply_protection(vma.start, 4 * PAGE_SIZE, PROT_READ)
    vma = space.find_vma(vma.start)
    assert vma.pt.present().all()
    assert not vma.pt.writable().any()
    space.apply_protection(vma.start, 4 * PAGE_SIZE, PROT_NONE)
    vma = space.find_vma(vma.start)
    assert not vma.pt.present().any()
    assert vma.pt.populated().all()  # frames kept: this is the user-NT trick


def test_next_touch_pages_stay_invalid_across_mprotect(space):
    vma = space.mmap(4 * PAGE_SIZE, PROT_RW)
    frames = np.arange(4, dtype=np.int64)
    vma.pt.map_pages(slice(None), frames, np.zeros(4, dtype=np.int16), True)
    vma.pt.mark_next_touch(slice(0, 2))
    space.apply_protection(vma.start, 4 * PAGE_SIZE, PROT_RW)
    vma = space.find_vma(vma.start)
    assert not vma.pt.present()[:2].any()
    assert vma.pt.next_touch()[:2].all()
    assert vma.pt.present()[2:].all()


def test_munmap_releases_frames():
    sys_ = System()
    proc = sys_.create_process("munmap")
    space = proc.addr_space
    vma = space.mmap(8 * PAGE_SIZE, PROT_RW)
    frames = sys_.kernel.alloc_on(1, 8)
    vma.pt.map_pages(slice(None), frames, np.ones(8, dtype=np.int16), True)
    used_before = sys_.kernel.allocators[1].used
    freed = space.munmap(vma.start, 8 * PAGE_SIZE)
    assert freed == 8
    assert sys_.kernel.allocators[1].used == used_before - 8
    assert space.find_vma(vma.start) is None


def test_munmap_partial(space):
    vma = space.mmap(8 * PAGE_SIZE, PROT_RW, name="buf")
    space.munmap(vma.start + 2 * PAGE_SIZE, 2 * PAGE_SIZE)
    vmas = [v for v in space.vmas if v.name == "buf"]
    assert [v.npages for v in vmas] == [2, 4]
    assert space.find_vma(vma.start + 2 * PAGE_SIZE) is None
    assert_invariants(space.kernel)


def test_apply_policy_splits_and_merges(space):
    vma = space.mmap(8 * PAGE_SIZE, PROT_RW, name="buf")
    pol = MemPolicy.interleave(0, 1)
    space.apply_policy(vma.start, 4 * PAGE_SIZE, pol)
    vmas = [v for v in space.vmas if v.name == "buf"]
    assert len(vmas) == 2
    assert vmas[0].policy == pol and vmas[1].policy is None
    space.apply_policy(vma.start + 4 * PAGE_SIZE, 4 * PAGE_SIZE, pol)
    vmas = [v for v in space.vmas if v.name == "buf"]
    assert len(vmas) == 1 and vmas[0].policy == pol


def test_range_segments_over_hole(space):
    vma = space.mmap(2 * PAGE_SIZE, PROT_RW)
    with pytest.raises(SyscallError) as exc:
        list(space.range_segments(vma.start, 4 * PAGE_SIZE))
    assert exc.value.errno == Errno.EFAULT


def test_node_histogram_spans_vmas():
    sys_ = System()
    proc = sys_.create_process("hist")
    space = proc.addr_space
    a = space.mmap(3 * PAGE_SIZE, PROT_RW)
    b = space.mmap(2 * PAGE_SIZE, PROT_RW)
    a.pt.map_pages(slice(None), sys_.kernel.alloc_on(0, 3), np.zeros(3, dtype=np.int16), True)
    b.pt.map_pages(slice(None), sys_.kernel.alloc_on(2, 2), np.full(2, 2, dtype=np.int16), True)
    assert list(space.node_histogram()) == [3, 0, 2, 0]
