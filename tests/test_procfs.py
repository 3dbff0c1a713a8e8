"""Tests for the /proc-style introspection views (repro.obs.procfs)."""

import numpy as np

from conftest import drive
from repro import PROT_RW, System
from repro.kernel.mempolicy import MemPolicy
from repro.kernel.swap import attach_swap
from repro.obs import procfs, record_tracepoints
from repro.obs.tracepoints import TracepointEvent
from repro.util import PAGE_SIZE


def test_policy_string_spellings():
    assert procfs.policy_string(None) == "default"
    assert procfs.policy_string(MemPolicy.default()) == "default"
    assert procfs.policy_string(MemPolicy.bind(0, 2)) == "bind:0,2"
    assert procfs.policy_string(MemPolicy.preferred(3)) == "prefer:3"
    assert procfs.policy_string(MemPolicy.interleave(0, 1)) == "interleave:0,1"


def _placed_system():
    """8 pages on node 0, 4 of them then moved to node 1; 2 swapped."""
    system = System()
    attach_swap(system.kernel)
    proc = system.create_process("view")

    def body(t):
        addr = yield from t.mmap(8 * PAGE_SIZE, PROT_RW, name="buf")
        yield from t.touch(addr, 8 * PAGE_SIZE)
        yield from t.move_range(addr, 4 * PAGE_SIZE, 1)
        yield from t.swap_out(addr + 6 * PAGE_SIZE, 2 * PAGE_SIZE)
        return addr

    addr = drive(system, body, core=0, process=proc)
    return system, proc, addr


def test_numa_maps_counts_match_the_page_tables():
    system, proc, addr = _placed_system()
    num_nodes = system.machine.num_nodes
    records = procfs.numa_maps_data(proc, num_nodes)
    buf = next(r for r in records if r["name"] == "buf")
    assert buf["start"] == addr
    assert buf["policy"] == "default"
    assert buf["npages"] == 8
    assert buf["mapped"] == 6  # two pages live on swap
    assert buf["per_node"][0] == 2
    assert buf["per_node"][1] == 4
    assert buf["swapped"] == 2
    # ground truth straight from the page table
    vma = proc.addr_space.find_vma(addr)
    present = vma.pt.frame >= 0
    assert buf["mapped"] == int(np.count_nonzero(present))
    for node in range(num_nodes):
        assert buf["per_node"][node] == int(
            np.count_nonzero(vma.pt.node[present] == node)
        )
    # and the rendered line carries the same numbers
    text = procfs.numa_maps(proc, num_nodes)
    line = next(ln for ln in text.splitlines() if "name=buf" in ln)
    assert "N0=2" in line and "N1=4" in line and "swap=2" in line
    assert line.startswith(f"{addr:012x} default anon=6")


def test_numa_maps_renders_policies_and_nexttouch_marks():
    system = System()
    proc = system.create_process("pol")

    def body(t):
        addr = yield from t.mmap(
            4 * PAGE_SIZE, PROT_RW, policy=MemPolicy.interleave(0, 1), name="il"
        )
        yield from t.touch(addr, 4 * PAGE_SIZE)
        from repro.kernel.syscalls import Madvise

        yield from t.madvise(addr, 2 * PAGE_SIZE, Madvise.NEXTTOUCH)
        return addr

    drive(system, body, core=0, process=proc)
    text = procfs.numa_maps(proc, system.machine.num_nodes)
    line = next(ln for ln in text.splitlines() if "name=il" in ln)
    assert "interleave:0,1" in line
    assert "nexttouch=2" in line


def test_vmstat_is_consistent_with_numastat_and_stats():
    system, proc, _ = _placed_system()
    kernel = system.kernel
    data = procfs.vmstat_data(kernel)
    table = kernel.numastat.as_table()
    assert data["numa_hit"] == sum(table["numa_hit"])
    assert data["numa_miss"] == sum(table["numa_miss"])
    assert data["numa_foreign"] == sum(table["numa_foreign"])
    assert data["numa_interleave"] == sum(table["interleave_hit"])
    assert data["pgmigrate_success"] == kernel.stats.pages_migrated == 4
    # the per-reason split is exhaustive: the three reasons sum to the
    # total, and this run's migrations were all move_pages
    assert (
        data["pgmigrate_move_pages"]
        + data["pgmigrate_migrate_pages"]
        + data["pgmigrate_nexttouch"]
        == data["pgmigrate_success"]
    )
    assert data["pgmigrate_move_pages"] == 4
    assert data["pgfault_minor"] == kernel.stats.minor_faults == 8
    assert data["pgcow_reuse"] + data["pgcow_copy"] == kernel.stats.cow_faults
    assert data["nr_free_pages"] == sum(kernel.node_free_pages())
    assert data["pswpout"] == 2 and data["nr_swap_used"] == 2
    assert data["pswpin"] == kernel.stats.pages_swapped_in == 0
    # rendering: one "name value" pair per line, same numbers
    rendered = dict(
        line.split() for line in procfs.vmstat(kernel).splitlines()
    )
    assert int(rendered["numa_hit"]) == data["numa_hit"]
    assert int(rendered["pgmigrate_success"]) == 4


def test_vmstat_identical_fast_vs_slow():
    """Every telemetry-backed vmstat row must be bit-identical whether
    the turbo run commits or the per-page slow path did the work — the
    KernelStats contract, pinned here at the procfs surface."""

    def run(slow: bool) -> dict:
        system = System()
        system.kernel.force_slow_path = slow
        attach_swap(system.kernel)
        proc = system.create_process("view")
        npages = 512

        def body(t):
            addr = yield from t.mmap(npages * PAGE_SIZE, PROT_RW, name="buf")
            # batch=1 storms: demand-zero turbo, then swap-out and a
            # swap-in storm, then a bulk migration — every run kind
            # with a fast/slow twin shows up in the counters.
            yield from t.touch(addr, npages * PAGE_SIZE, write=True, batch=1)
            yield from t.swap_out(addr, (npages // 2) * PAGE_SIZE)
            yield from t.touch(addr, (npages // 2) * PAGE_SIZE, batch=1)
            yield from t.move_range(addr, npages * PAGE_SIZE, 1)

        drive(system, body, core=0, process=proc)
        return procfs.vmstat_data(system.kernel)

    fast, slow = run(False), run(True)
    assert fast == slow
    assert fast["pgmigrate_success"] == 512
    assert fast["pswpout"] == fast["pswpin"] == 256


def test_pagetypeinfo_matches_the_allocators():
    system, proc, _ = _placed_system()
    kernel = system.kernel
    for rec, alloc in zip(procfs.pagetypeinfo_data(kernel), kernel.allocators):
        assert rec["node"] == alloc.node_id
        assert rec["capacity"] == alloc.capacity
        assert rec["used"] == alloc.used
        assert rec["free"] == alloc.free
        assert rec["used"] + rec["free"] == rec["capacity"]
    text = procfs.pagetypeinfo(kernel)
    assert text.splitlines()[0].split() == ["node", "capacity", "used", "free"]
    assert len(text.splitlines()) == 1 + kernel.machine.num_nodes


def _event(name, t_us, **fields):
    return TracepointEvent(name, float(t_us), 0, fields)


def test_placement_heatmap_buckets_pages_by_node_and_time():
    events = [
        _event("fault:demand_zero", 0.0, pid=1, vma=100, node=0, pages=10),
        _event("fault:nt_migrate", 50.0, pid=1, vma=100, dest=1, pages=6),
        _event("migrate:phase_copy", 100.0, tag="mp", pid=1, vma=100,
               src=0, dest=2, pages=4, dur_us=1.0),
        _event("fault:exit", 60.0, pid=1, tid=1),  # not a placement event
    ]
    matrix, art = procfs.placement_heatmap(events, 3, buckets=2)
    assert matrix == [[10, 0], [0, 6], [0, 4]]
    assert art.splitlines()[1].startswith("N0 |")
    # vma filter restricts the timeline
    matrix2, _ = procfs.placement_heatmap(events, 3, buckets=2, vma=999)
    assert matrix2 == [[0, 0], [0, 0], [0, 0]]


def test_placement_heatmap_from_a_real_recorded_run():
    with record_tracepoints() as rec:
        _placed_system()
    num_nodes = 4
    matrix, art = procfs.placement_heatmap(rec.events, num_nodes, buckets=10)
    placed = sum(sum(row) for row in matrix)
    # 8 first-touch + 4 migrated + 2 swap-in? (no swap-in here) = 12
    assert placed == 12
    assert sum(matrix[1]) == 4  # the migrated pages landed on node 1
    assert "placement heatmap" in art


def test_introspect_cli_renders_every_view(capsys):
    from repro.experiments import cli

    assert cli.main(["introspect"]) == 0
    out = capsys.readouterr().out
    for section in (
        "=== tracepoints ===",
        "=== phase breakdown ===",
        "=== page flows",
        "numa_maps",
        "=== kernel stats ===",
        "=== /proc/vmstat ===",
        "=== /proc/pagetypeinfo ===",
        "placement heatmap",
    ):
        assert section in out
    # the kernel stats section and the vmstat view read the same
    # counters, so the migration totals printed by both must agree
    stats_lines = dict(
        line.split()
        for line in out.split("=== kernel stats ===")[1]
        .split("===")[0]
        .strip()
        .splitlines()
    )
    assert "run_ops.migrate" in stats_lines and "node_used.node0" in stats_lines
    # vmstat numbers printed by the CLI agree with numastat semantics:
    # the workload allocates every page as a hit
    rendered = dict(
        line.split()
        for line in out.split("=== /proc/vmstat ===")[1]
        .split("===")[0]
        .strip()
        .splitlines()
    )
    assert int(rendered["numa_hit"]) >= int(rendered["pgmigrate_success"]) > 0
    assert int(stats_lines["pages_migrated"]) == int(rendered["pgmigrate_success"])
