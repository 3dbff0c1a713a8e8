"""The differential oracle agrees with the kernel on hand-written
scenarios — happy paths, error paths, and the paper's NT/COW/swap
interactions (see docs/correctness.md)."""

import pytest

from repro.check import DiffHarness
from repro.kernel.pagetable import PTE_WRITE
from repro.kernel.vma import PROT_NONE, PROT_READ, PROT_RW


def run_clean(ops):
    """Run ops through the harness; fail the test on any divergence."""
    harness = DiffHarness()
    failure = harness.run(ops)
    assert failure is None, f"step {failure and failure.step}: {failure and failure.detail}"
    return harness


def _mmap(region, npages, prot=PROT_RW, proc="p0", shared=False, core=0):
    return {
        "kind": "mmap",
        "proc": proc,
        "core": core,
        "region": region,
        "npages": npages,
        "prot": int(prot),
        "shared": shared,
    }


def _touch(region, lo, hi, write=True, proc="p0", core=0, batch=1):
    return {
        "kind": "touch",
        "proc": proc,
        "core": core,
        "region": region,
        "lo": lo,
        "hi": hi,
        "write": write,
        "batch": batch,
    }


def _range(kind, region, lo, hi, proc="p0", core=0, **extra):
    op = {"kind": kind, "proc": proc, "core": core, "region": region, "lo": lo, "hi": hi}
    op.update(extra)
    return op


def test_demand_zero_and_write_upgrade():
    run_clean(
        [
            _mmap("r0", 8),
            _touch("r0", 0, 8, write=False),
            _touch("r0", 0, 8, write=True),
        ]
    )


def test_first_touch_places_on_local_node():
    harness = run_clean([_mmap("r0", 4), _touch("r0", 0, 4, core=6)])
    node = harness.oracle.num_nodes - 1  # core 6 of 2-per-node lives on node 3
    state = harness.oracle.canonical()
    pages = state["procs"]["p0"]["pages"]
    assert all(page[0] == node for page in pages.values())
    assert harness.state_diff() == []


def test_next_touch_migrates_to_toucher():
    run_clean(
        [
            _mmap("r0", 6),
            _touch("r0", 0, 6, core=0),
            _range("madv_nt", "r0", 0, 6),
            _touch("r0", 0, 6, core=7),  # remote core: migrate-on-touch
        ]
    )


def test_fork_cow_write_both_sides():
    run_clean(
        [
            _mmap("r0", 5),
            _touch("r0", 0, 5, write=True),
            {"kind": "fork", "proc": "p0", "core": 0, "child": "p1"},
            _touch("r0", 0, 3, write=True, proc="p1", core=2),  # child unshares
            _touch("r0", 0, 5, write=True, proc="p0"),  # parent unshares the rest
        ]
    )


def test_fork_read_only_mapping_stays_cow_protected():
    # The bug fixed in src/repro/kernel/fork.py: populated but
    # non-writable private pages must be COW-protected too
    # (tests/reproducers/fork-missing-cow.json).
    run_clean(
        [
            _mmap("r0", 4, prot=PROT_READ),
            _touch("r0", 0, 4, write=False),
            {"kind": "fork", "proc": "p0", "core": 0, "child": "p1"},
            {"kind": "mprotect", "proc": "p0", "core": 0, "region": "r0",
             "lo": 0, "hi": 4, "prot": int(PROT_RW)},
            _touch("r0", 0, 4, write=True),  # must still COW-copy
        ]
    )


def test_swap_out_and_swap_in():
    run_clean(
        [
            _mmap("r0", 8),
            _touch("r0", 0, 8, write=True),
            _range("swap_out", "r0", 0, 4),
            _touch("r0", 0, 8, write=False),  # faults the swapped half back in
        ]
    )


def test_munmap_releases_frames_and_swap_slots():
    # The swap-slot-leak fix (tests/reproducers/munmap-swap-slot-leak.json).
    run_clean(
        [
            _mmap("r0", 8),
            _touch("r0", 0, 8, write=True),
            _range("swap_out", "r0", 2, 6),
            _range("munmap", "r0", 0, 8),
        ]
    )


def test_nt_touch_on_forked_pages_keeps_cow():
    # The NT-stay fix (tests/reproducers/nt-stay-write-on-shared.json):
    # revalidating a next-touch page must not grant WRITE on a frame
    # still shared with the fork sibling.
    run_clean(
        [
            _mmap("r0", 4),
            _touch("r0", 0, 4, write=True, core=4),
            {"kind": "fork", "proc": "p0", "core": 0, "child": "p1"},
            _range("madv_nt", "r0", 0, 4),
            _touch("r0", 0, 4, write=False, core=5),  # same node: stay path
            _touch("r0", 0, 4, write=True, core=5),  # must COW-copy, not scribble
        ]
    )


def test_segv_on_prot_none_matches():
    harness = DiffHarness()
    assert harness.step(0, _mmap("r0", 4)) is None
    assert harness.step(1, _range("mprotect", "r0", 0, 4, prot=int(PROT_NONE))) is None
    assert harness.step(2, _touch("r0", 0, 4, write=False)) is None  # both segv


def test_write_to_read_only_matches():
    run_clean([_mmap("r0", 4, prot=PROT_READ), _touch("r0", 0, 4, write=True)])


def test_errno_paths_match():
    run_clean(
        [
            _mmap("r0", 4),
            # madvise/mprotect past the mapping: ENOMEM on both sides.
            _range("madv_nt", "r0", 0, 4 + 2),
            _range("mprotect", "r0", 2, 4 + 3, prot=int(PROT_READ)),
            # move_pages to a node that does not exist: ENODEV.
            _range("move_pages", "r0", 0, 4, dest=99),
            # migrate_pages with a bad node id: EINVAL.
            {"kind": "migrate_pages", "proc": "p0", "core": 0, "src": 0, "dst": 77},
        ]
    )


def test_move_pages_and_migrate_pages_agree():
    run_clean(
        [
            _mmap("r0", 10),
            _touch("r0", 0, 10, write=True, core=0),
            _range("move_pages", "r0", 0, 5, dest=2),
            {"kind": "migrate_pages", "proc": "p0", "core": 0, "src": 0, "dst": 3},
            _touch("r0", 0, 10, write=True, core=0),
        ]
    )


def test_shared_mapping_fork_no_cow():
    run_clean(
        [
            _mmap("r0", 4, shared=True),
            _touch("r0", 0, 4, write=True),
            {"kind": "fork", "proc": "p0", "core": 0, "child": "p1"},
            _touch("r0", 0, 4, write=True, proc="p1", core=3),  # no COW on shared
        ]
    )


def _forked_four_pages():
    """A harness whose ``p0`` wrote 4 pages on node 0 and then forked
    ``p1``; returns it and the first page's vpn."""
    harness = run_clean(
        [
            _mmap("r0", 4),
            _touch("r0", 0, 4, write=True),
            {"kind": "fork", "proc": "p0", "core": 0, "child": "p1"},
        ]
    )
    return harness, harness.executor.regions["r0"][0] >> 12


def test_state_diff_messages_are_pinned():
    """One difference of every class the diff reports, in its order:
    node_used, swap_used, numa_hit, then per process (sorted) the
    layout and the page tuples, a process on one side only included."""
    harness, vpn = _forked_four_pages()
    harness.kernel.allocators[1].alloc()
    harness.oracle.swapped_pages += 2
    harness.kernel.numastat.numa_hit[3] += 1
    harness.oracle.procs["p1"].prot[vpn + 2] = int(PROT_READ)
    harness.kprocs["p0"].addr_space.vmas[0].pt.flags[1] |= PTE_WRITE
    ghost = harness.oracle.create_process("p2")
    ghost.prot[vpn] = int(PROT_RW)
    ghost.shared[vpn] = False
    ghost.page(vpn).swapped = True
    tuples = "(node,P,W,NT,COW,swap,refs)"
    assert harness.state_diff() == [
        "node_used: kernel [4, 1, 0, 0] oracle [4, 0, 0, 0]",
        "swap_used: kernel 0 oracle 2",
        "numa_hit: kernel [4, 0, 0, 1] oracle [4, 0, 0, 0]",
        f"p0 vpn 0x{vpn + 1:x} {tuples}: kernel (0, True, True, False, True, False, 2) "
        "oracle (0, True, False, False, True, False, 2)",
        f"p1 vpn 0x{vpn + 2:x} layout: kernel (3, False) oracle (1, False)",
        f"p2 vpn 0x{vpn:x} layout: kernel None oracle (3, False)",
        f"p2 vpn 0x{vpn:x} {tuples}: kernel None oracle (-1, False, False, False, False, True, 0)",
    ]


def test_state_diff_stops_after_eight_messages():
    """A process the oracle lost differs on 4 layout and 4 page
    entries; with a node_used difference first, the diff stops at 8."""
    harness, vpn = _forked_four_pages()
    harness.kernel.allocators[2].alloc()
    del harness.oracle.procs["p1"]
    page = "(node,P,W,NT,COW,swap,refs): kernel (0, True, False, False, True, False, 2)"
    assert harness.state_diff() == [
        "node_used: kernel [4, 0, 1, 0] oracle [4, 0, 0, 0]",
        *(f"p1 vpn 0x{vpn + i:x} layout: kernel (3, False) oracle None" for i in range(4)),
        *(f"p1 vpn 0x{vpn + i:x} {page} oracle None" for i in range(3)),
    ]


def test_dangling_references_are_skipped():
    harness = DiffHarness()
    # None of these resolve: unknown proc, unknown region, dup child.
    assert harness.step(0, _touch("rX", 0, 1, proc="p0")) is None
    assert harness.step(1, _mmap("r0", 4, proc="p9")) is None
    assert harness.step(2, {"kind": "fork", "proc": "pX", "core": 0, "child": "p1"}) is None
    assert harness.skipped == 3 and harness.steps_run == 0


def test_harness_detects_planted_kernel_divergence():
    harness = DiffHarness()
    assert harness.step(0, _mmap("r0", 4)) is None
    assert harness.step(1, _touch("r0", 0, 4)) is None
    # Corrupt the kernel's placement cache behind the oracle's back.
    proc = harness.kprocs["p0"]
    vma = proc.addr_space.vmas[0]
    vma.pt.node[0] = (int(vma.pt.node[0]) + 1) % harness.oracle.num_nodes
    failure = harness.step(2, _touch("r0", 0, 1, write=False))
    assert failure is not None
    assert failure.kind in ("invariant", "divergence")


def test_oracle_unknown_kind_raises():
    harness = DiffHarness()
    with pytest.raises(ValueError):
        harness.step(0, {"kind": "frobnicate", "proc": "p0", "core": 0})
