"""The surgery contract: splitting, merging and forking carry all state.

``PageTable.split``/``concat``/``fork_copy`` are the only code that
copies PTE columns, and ``Vma.like`` the only code that copies VMA
attributes. These tests iterate ``__slots__``, so a column or attribute
added later is covered without editing them — and one that surgery
drops fails here.
"""

import numpy as np
import pytest

from conftest import drive
from repro import PROT_READ, PROT_RW
from repro.ext.hugepages import mmap_huge
from repro.kernel.files import SimFile, mmap_file
from repro.kernel.mempolicy import MemPolicy
from repro.kernel.pagetable import PageTable
from repro.kernel.swap import attach_swap
from repro.kernel.vma import Vma
from repro.util import PAGE_SIZE

#: VMA attributes surgery takes from elsewhere, not from the source VMA.
_PLACED = {"start", "pt"}


def _columns(pt):
    return {name: getattr(pt, name) for name in PageTable.__slots__}


def _storage_free(column):
    return column.strides == (0,)


def _sample_table(swapped):
    pt = PageTable(8)
    pt.map_pages(
        slice(0, 6),
        np.arange(100, 106, dtype=np.int64),
        np.asarray([0, 1, 2, 3, 0, 1], dtype=np.int16),
        True,
    )
    pt.mark_next_touch(slice(2, 4))
    if swapped:
        pt.set_swap([6, 7], [11, 12])
    return pt


@pytest.mark.parametrize("swapped", [False, True], ids=["never-swapped", "swapped"])
def test_split_then_concat_round_trips_every_column(swapped):
    pt = _sample_table(swapped)
    before = {name: col.copy() for name, col in _columns(pt).items()}
    for at in range(1, pt.npages):
        left, right = pt.split(at)
        assert (left.npages, right.npages) == (at, pt.npages - at)
        merged = left.concat(right)
        for name, col in _columns(merged).items():
            assert col.dtype == before[name].dtype, name
            assert np.array_equal(col, before[name]), (name, at)
        # The halves are independent of the original.
        left.flags[:] = 0
        left.set_swap(0, 99)
        for name, col in _columns(pt).items():
            assert np.array_equal(col, before[name]), (name, at)


def test_never_swapped_table_holds_no_swap_storage():
    """What keeps ``peak_rss_mb`` flat: no surgery gives a table that
    never swapped a swap column with storage."""
    pt = _sample_table(swapped=False)
    assert _storage_free(pt.swap)
    left, right = pt.split(3)
    assert _storage_free(left.swap) and _storage_free(right.swap)
    merged = left.concat(right)
    assert _storage_free(merged.swap)
    assert merged.swap.tolist() == [-1] * pt.npages
    assert _storage_free(merged.fork_copy().swap)


def test_set_swap_gives_the_column_storage_and_concat_keeps_it():
    left, right = PageTable(3), PageTable(2)
    left.set_swap(1, 5)
    assert not _storage_free(left.swap)
    assert _storage_free(right.swap)
    assert left.concat(right).swap.tolist() == [-1, 5, -1, -1, -1]
    assert right.concat(left).swap.tolist() == [-1, -1, -1, 5, -1]


def test_fork_copy_copies_the_ptes_and_drops_swap_linkage():
    pt = _sample_table(swapped=True)
    child = pt.fork_copy()
    for name in ("frame", "node", "flags"):
        assert np.array_equal(getattr(child, name), getattr(pt, name)), name
    assert child.swap.tolist() == [-1] * pt.npages
    assert _storage_free(child.swap)
    child.frame[0] = -1  # independent copies
    assert pt.frame[0] == 100
    assert pt.swap.tolist()[6:] == [11, 12]


def _distinct_vma():
    """A VMA whose every attribute differs from the constructor's default."""
    vma = Vma(0x40000, 6, PROT_RW)
    values = {
        "prot": PROT_READ,
        "shared": True,
        "anonymous": False,
        "policy": MemPolicy.bind(1),
        "name": "every-slot",
        "anon_vma": object(),
        "huge": True,
        "file": object(),
        "mlocked": True,
    }
    # A new attribute must get a distinct value here to be covered.
    assert set(values) == set(Vma.__slots__) - _PLACED
    for name, value in values.items():
        setattr(vma, name, value)
    return vma


def _dropped(part, source):
    """Attributes ``part`` does not share with ``source`` (should be none)."""
    names = sorted(set(Vma.__slots__) - _PLACED)
    return [name for name in names if getattr(part, name) is not getattr(source, name)]


def test_vma_split_carries_every_attribute():
    vma = _distinct_vma()
    left, right = vma.split(2)
    assert (left.start, right.start) == (vma.start, vma.start + 2 * PAGE_SIZE)
    assert _dropped(left, vma) == [] and _dropped(right, vma) == []


def test_vma_merge_carries_every_attribute_and_column():
    vma = _distinct_vma()
    frames = np.arange(4, dtype=np.int64)
    vma.pt.map_pages(slice(0, 4), frames, np.zeros(4, dtype=np.int16), False)
    vma.pt.set_swap(5, 3)
    left, right = vma.split(4)
    merged = left.merge(right)
    assert merged.start == vma.start and merged.npages == vma.npages
    assert _dropped(merged, left) == []
    for name, col in _columns(merged.pt).items():
        assert np.array_equal(col, getattr(vma.pt, name)), name


def test_fork_carries_every_attribute_but_three(system):
    """The child's VMAs equal the parent's except for fork's three
    documented differences: a fresh ``anon_vma``, ``mlocked`` cleared
    (memory locks are not inherited) and no swap linkage."""
    attach_swap(system.kernel)
    proc = system.create_process("parent")
    f = SimFile(system.kernel, "lib.bin", 4 * PAGE_SIZE)
    box = {}

    def body(t):
        faddr = yield from mmap_file(t, f, PROT_READ, shared=False, name="lib")
        yield from t.mlock(faddr, 4 * PAGE_SIZE)
        anon = yield from t.mmap(8 * PAGE_SIZE, PROT_RW, name="heap")
        yield from t.mbind(anon, 8 * PAGE_SIZE, MemPolicy.bind(2))
        yield from t.touch(anon, 8 * PAGE_SIZE)
        yield from t.swap_out(anon, 3 * PAGE_SIZE)
        yield from mmap_huge(t, PAGE_SIZE, name="huge")
        box["child"] = yield from t.fork()

    drive(system, body, core=0, process=proc)
    child = box["child"]
    pairs = list(zip(proc.addr_space.vmas, child.addr_space.vmas))
    assert len(pairs) == len(proc.addr_space.vmas) == len(child.addr_space.vmas) == 3
    lib, heap, huge = (parent for parent, _ in pairs)
    assert lib.mlocked and lib.file is f and heap.policy == MemPolicy.bind(2) and huge.huge
    assert heap.pt.swap.tolist()[:3] != [-1, -1, -1]
    for parent, kid in pairs:
        assert kid.start == parent.start and kid.npages == parent.npages
        for name in set(Vma.__slots__) - _PLACED - {"anon_vma", "mlocked"}:
            assert getattr(kid, name) == getattr(parent, name), name
        assert kid.anon_vma is not parent.anon_vma
        assert kid.mlocked is False
        assert kid.pt.swap.tolist() == [-1] * kid.npages
        assert _storage_free(kid.pt.swap)
        for name in ("frame", "node"):
            assert np.array_equal(getattr(kid.pt, name), getattr(parent.pt, name)), name
