"""Each invariant checker fires on a deliberately broken kernel state
and stays quiet on a healthy one."""

import numpy as np
import pytest

from conftest import drive
from repro.check import (
    INVARIANTS,
    InvariantViolation,
    assert_invariants,
    check_kernel,
    check_system,
)
from repro.kernel.frames import NODE_STRIDE_SHIFT, node_of_frame
from repro.kernel.pagetable import PTE_COW, PTE_PRESENT, PTE_WRITE, PageTable
from repro.kernel.vma import PROT_READ, PROT_RW
from repro.util.units import PAGE_SIZE


def populated_system(system):
    """A system with a touched mapping (frames, stats, ledger activity)."""

    def body(t):
        addr = yield from t.mmap(8 * PAGE_SIZE, PROT_RW)
        yield from t.touch(addr, 8 * PAGE_SIZE, write=True, bytes_per_page=0.0)
        return addr

    addr = drive(system, body)
    return system, addr


def fired(kernel, name):
    """Violations from one named checker."""
    return [v for v in check_kernel(kernel, [name])]


def forked_pair(system):
    """Two processes with three VMAs each (``r0``..``r2``): a parent
    with three touched private mappings and its fork child, every
    frame shared copy-on-write between them."""
    parent = system.create_process("parent")

    def body(t):
        for i in range(3):
            addr = yield from t.mmap(4 * PAGE_SIZE, PROT_RW, name=f"r{i}")
            yield from t.touch(addr, 4 * PAGE_SIZE, write=True, bytes_per_page=0.0)
        return (yield from t.fork())

    child = drive(system, body, process=parent)
    assert [len(p.addr_space.vmas) for p in (parent, child)] == [3, 3]
    return parent, child


def blamed(violations):
    """The ``proc:vma`` each page-level message names."""
    return {v.message.split(": ")[0] for v in violations}


def test_clean_system_passes_every_invariant(system):
    populated_system(system)
    assert check_system(system) == []
    assert_invariants(system.kernel)  # must not raise


def test_vma_layout_detects_desynced_index(system):
    _, _ = populated_system(system)
    space = system.kernel.processes[0].addr_space
    space._starts[0] -= PAGE_SIZE
    assert fired(system.kernel, "vma_layout")


def test_pte_consistency_detects_present_without_frame(system):
    populated_system(system)
    proc = system.kernel.processes[0]

    def body(t):
        return (yield from t.mmap(4 * PAGE_SIZE, PROT_RW))

    drive(system, body, process=proc)
    vma = proc.addr_space.vmas[-1]  # untouched mapping: no frames
    vma.pt.flags[0] |= np.uint16(PTE_PRESENT)
    assert fired(system.kernel, "pte_consistency")


def test_pte_consistency_detects_stale_node_cache(system):
    populated_system(system)
    vma = system.kernel.processes[0].addr_space.vmas[0]
    vma.pt.node[0] = (int(vma.pt.node[0]) + 1) % system.kernel.machine.num_nodes
    assert fired(system.kernel, "pte_consistency")


def _freed_frame(kernel):
    frames = kernel.alloc_on(0, 1)
    kernel.release_frames(frames)
    return int(frames[0])


@pytest.mark.parametrize(
    "pick, message",
    [
        (_freed_frame, "PTE points at a freed frame (node 0)"),
        # In range but never handed out: past the bump pointer, and
        # past the end of the allocation bitmap.
        (
            lambda k: k.allocators[0]._base + k.allocators[0].capacity - 1,
            "PTE points at a freed frame (node 0)",
        ),
        (
            lambda k: k.allocators[0]._base + k.allocators[0].capacity,
            "frame beyond node 0 capacity",
        ),
        (lambda k: len(k.allocators) << NODE_STRIDE_SHIFT, "frame id outside any node's range"),
    ],
    ids=["freed", "past-bump", "past-capacity", "past-last-node"],
)
def test_pte_consistency_detects_bad_frame(system, pick, message):
    populated_system(system)
    frame = pick(system.kernel)
    vma = system.kernel.processes[0].addr_space.vmas[0]
    vma.pt.frame[0] = frame
    vma.pt.node[0] = node_of_frame(frame)  # the node cache stays in step
    found = fired(system.kernel, "pte_consistency")
    assert message in {v.message.split(": ", 1)[1] for v in found}


def test_frame_refcounts_detects_leaked_reference(system):
    populated_system(system)
    vma = system.kernel.processes[0].addr_space.vmas[0]
    frame = int(vma.pt.frame[0])
    system.kernel.frame_refs[frame] = system.kernel.frame_refs.get(frame, 1) + 1
    assert fired(system.kernel, "frame_refcounts")


def test_node_accounting_detects_unmapped_allocation(system):
    populated_system(system)
    system.kernel.alloc_on(0, 1)  # allocated but never mapped anywhere
    assert fired(system.kernel, "node_accounting")


def test_cow_write_exclusion_detects_write_on_shared_frame(system):
    populated_system(system)
    parent = system.kernel.processes[0]

    def body(t):
        return (yield from t.fork())

    drive(system, body, process=parent)
    vma = parent.addr_space.vmas[0]
    vma.pt.flags[0] |= np.uint16(PTE_WRITE)  # scribble on a shared frame
    assert fired(system.kernel, "cow_write_exclusion")


def test_cow_write_exclusion_detects_cow_flag_without_frame_in_readonly_vma(system):
    """Private pages are checked whether or not the VMA is writable."""
    populated_system(system)
    proc = system.kernel.processes[0]

    def body(t):
        return (yield from t.mmap(4 * PAGE_SIZE, PROT_READ))

    drive(system, body, process=proc)
    vma = proc.addr_space.vmas[-1]  # read-only and untouched: no frames
    vma.pt.flags[2] |= np.uint16(PTE_COW)
    assert fired(system.kernel, "cow_write_exclusion")


def test_pte_consistency_names_exactly_the_corrupted_vma(system):
    _parent, child = forked_pair(system)
    vma = child.addr_space.vmas[1]
    vma.pt.node[3] = (int(vma.pt.node[3]) + 1) % system.kernel.machine.num_nodes
    assert blamed(fired(system.kernel, "pte_consistency")) == {"parent-child:r1"}


def test_cow_write_exclusion_names_exactly_the_corrupted_vma(system):
    _parent, child = forked_pair(system)
    vma = child.addr_space.vmas[1]
    assert system.kernel.frame_shared(int(vma.pt.frame[0]))
    vma.pt.flags[0] |= np.uint16(PTE_WRITE)  # scribble on a shared frame
    assert blamed(fired(system.kernel, "cow_write_exclusion")) == {"parent-child:r1"}


def test_numastat_balance_detects_unbalanced_miss(system):
    populated_system(system)
    system.kernel.numastat.numa_miss[0] += 1  # miss with no matching foreign
    assert fired(system.kernel, "numastat_balance")


def test_ledger_consistency_detects_phantom_total(system):
    populated_system(system)
    system.kernel.ledger.totals["phantom.tag"] = 1.0  # total without events
    assert fired(system.kernel, "ledger_consistency")


def test_ledger_consistency_detects_unattributed_migration(system):
    """Every migrated page is counted under exactly one reason."""
    populated_system(system)
    system.kernel.stats.migrations["move_pages"] += 1  # no pages_migrated bump
    assert fired(system.kernel, "ledger_consistency")


def test_swap_consistency_detects_leaked_slot(system):
    populated_system(system)
    vma = system.kernel.processes[0].addr_space.vmas[0]
    vma.pt.frame[1] = -1
    vma.pt.node[1] = -1
    vma.pt.flags[1] = 0
    vma.pt.set_swap(1, 7)  # references a slot no device ever allocated
    assert fired(system.kernel, "swap_consistency")


def test_every_registered_invariant_has_a_breaker():
    """The list above must cover the whole registry — adding an
    invariant without a deliberately-broken-state test fails here."""
    covered = {
        "vma_layout",
        "pte_consistency",
        "frame_refcounts",
        "node_accounting",
        "cow_write_exclusion",
        "numastat_balance",
        "ledger_consistency",
        "swap_consistency",
    }
    assert covered == set(INVARIANTS)


def test_unknown_invariant_name_raises(system):
    with pytest.raises(KeyError):
        check_kernel(system.kernel, ["no_such_invariant"])


def test_assert_invariants_raises_with_structured_violations(system):
    populated_system(system)
    system.kernel.numastat.numa_miss[0] += 1
    with pytest.raises(InvariantViolation) as exc:
        assert_invariants(system.kernel)
    assert any(v.invariant == "numastat_balance" for v in exc.value.violations)


def test_vma_layout_detects_mis_sized_swap_column(system):
    populated_system(system)
    vma = system.kernel.processes[0].addr_space.vmas[0]
    vma.pt.swap = np.full(vma.pt.npages + 1, -1, dtype=np.int64)
    assert fired(system.kernel, "vma_layout")


def test_pte_consistency_detects_populated_page_on_swap(system):
    populated_system(system)
    vma = system.kernel.processes[0].addr_space.vmas[0]
    assert vma.pt.frame[0] >= 0
    vma.pt.set_swap(0, 0)
    found = fired(system.kernel, "pte_consistency")
    assert "page both populated and on swap" in {v.message.split(": ", 1)[1] for v in found}


def test_numastat_balance_detects_unbooked_first_touch(system):
    """Every first-touched page is booked in numastat exactly once."""
    populated_system(system)
    system.kernel.stats.pages_first_touched += 1  # a page numastat never saw
    assert [v.message for v in fired(system.kernel, "numastat_balance")] == [
        "numastat books 8 first touch(es) but pages_first_touched=9"
    ]


def two_vma_system(system):
    """A process with two touched 8-page mappings."""

    def body(t):
        for name in ("a", "b"):
            addr = yield from t.mmap(8 * PAGE_SIZE, PROT_RW, name=name)
            yield from t.touch(addr, 8 * PAGE_SIZE, bytes_per_page=0.0)

    drive(system, body)
    return system.kernel.processes[0].addr_space.vmas


@pytest.mark.parametrize("column", ["node", "flags"])
def test_vma_layout_reports_mis_sized_column_instead_of_raising(system, column):
    """A ``node`` or ``flags`` column shorter than ``frame`` is a
    ``vma_layout`` violation; the sweep reads it as a placeholder."""
    vma = two_vma_system(system)[0]
    setattr(vma.pt, column, getattr(vma.pt, column)[:6].copy())
    violations = check_kernel(system.kernel)
    layout = [v.message for v in violations if v.invariant == "vma_layout"]
    assert layout == [f"test: {column} column size mismatch in {vma!r}"]


def test_vma_layout_names_an_empty_vma(system):
    vma = two_vma_system(system)[1]
    vma.pt = PageTable._of(*(getattr(vma.pt, c)[:0] for c in ("frame", "node", "flags", "swap")))
    assert [v.message for v in fired(system.kernel, "vma_layout")] == [
        f"test: empty VMA {vma!r}"
    ]
