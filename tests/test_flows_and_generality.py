"""Unit tests for the flow tracer experiment and machine generality."""

import pytest

from conftest import drive
from repro import Machine, Madvise, PROT_RW, System
from repro.experiments import fig12_flows
from repro.util import PAGE_SIZE


# ------------------------------------------------------------------ flows ----
def _assert_in_order(steps: list[str], fragments: list[str]) -> None:
    """The first step containing each fragment comes strictly in order."""
    positions = [next(i for i, s in enumerate(steps) if f in s) for f in fragments]
    assert all(a < b for a, b in zip(positions, positions[1:])), steps


def test_user_flow_contains_signal_and_syscalls():
    tracer = fig12_flows.trace_user_flow()
    steps = fig12_flows.flow_steps(tracer, fig12_flows.USER_STEPS)
    assert any("SIGSEGV" in s for s in steps)
    assert any("move_pages" in s for s in steps)
    assert steps[0].startswith("mprotect")
    # Figure 1: mark -> fault -> SIGSEGV -> move_pages (control/copy)
    # -> restore -> retry.
    _assert_in_order(
        steps,
        [
            "marks next-touch",
            "page-fault",
            "SIGSEGV",
            "move_pages() (enter kernel)",
            "copy page",
            "restores protection",
            "retry succeeds",
        ],
    )


def test_kernel_flow_has_no_signal_and_one_kernel_entry():
    tracer = fig12_flows.trace_kernel_flow()
    steps = fig12_flows.flow_steps(tracer, fig12_flows.KERNEL_STEPS)
    assert steps[0].startswith("madvise")
    assert not any("SIGSEGV" in s for s in steps)
    assert any("copy page" in s for s in steps)
    # Figure 2: madvise -> fault -> migrate in the handler
    # (allocate/copy/free) -> retry. No signal, no second syscall.
    _assert_in_order(
        steps,
        [
            "madvise",
            "page-fault",
            "migrate page",
            "allocate new page",
            "copy page",
            "free old page",
            "retry succeeds",
        ],
    )


def test_flow_steps_collapse_repeats():
    from repro.sim.trace import Tracer

    tr = Tracer()
    for _ in range(3):
        tr.record(0.0, 1.0, "x.a")
    tr.record(3.0, 1.0, "y.b")
    steps = fig12_flows.flow_steps(tr, {"x.": "X", "y.": "Y"})
    assert steps == ["X", "Y"]


def test_render_flow_numbers_steps():
    text = fig12_flows.render_flow("T:", ["first", "second"])
    assert "1. first" in text and "2. second" in text


def test_run_renders_both_figures():
    text = fig12_flows.run()
    assert "Figure 1" in text and "Figure 2" in text


# ------------------------------------------------------------- generality ----
@pytest.mark.parametrize("nodes,cores", [(2, 8), (8, 2)])
def test_next_touch_on_other_machines(nodes, cores):
    """Nothing in the stack assumes the paper's 4x4 topology."""
    system = System(Machine.symmetric(nodes, cores))
    proc = system.create_process("gen")
    target_core = (nodes - 1) * cores  # first core of the last node

    def body(t):
        addr = yield from t.mmap(16 * PAGE_SIZE, PROT_RW)
        yield from t.touch(addr, 16 * PAGE_SIZE)
        yield from t.madvise(addr, 16 * PAGE_SIZE, Madvise.NEXTTOUCH)
        yield from t.migrate_to(target_core)
        yield from t.touch(addr, 16 * PAGE_SIZE, bytes_per_page=64)
        return proc.addr_space.node_histogram().tolist()

    thread = system.spawn(proc, 0, body)
    hist = system.run_to(thread.join())
    assert hist[-1] == 16
    assert sum(hist) == 16


def test_single_node_machine_migration_is_noop():
    system = System(Machine.symmetric(1, 4))
    proc = system.create_process("uma")

    def body(t):
        addr = yield from t.mmap(8 * PAGE_SIZE, PROT_RW)
        yield from t.touch(addr, 8 * PAGE_SIZE)
        status = yield from t.move_range(addr, 8 * PAGE_SIZE, 0)
        return status.tolist()

    thread = system.spawn(proc, 0, body)
    assert system.run_to(thread.join()) == [0] * 8
    assert system.kernel.stats.pages_migrated == 0


def test_lu_runs_on_two_node_machine():
    from repro.apps.lu import ThreadedLU

    system = System(Machine.symmetric(2, 8))
    result = ThreadedLU(system, 1024, 256, policy="nexttouch", num_threads=8).run()
    assert result.elapsed_s > 0
    assert result.nt_faults > 0


def test_user_nt_on_two_node_machine():
    from repro.nexttouch import UserNextTouch

    system = System(Machine.symmetric(2, 2))
    proc = system.create_process("unt2")
    unt = UserNextTouch(proc)
    shared = {}

    def owner(t):
        addr = yield from t.mmap(8 * PAGE_SIZE, PROT_RW)
        yield from t.touch(addr, 8 * PAGE_SIZE)
        unt.register(addr, 8 * PAGE_SIZE)
        yield from unt.mark(t)
        shared["addr"] = addr

    drive(system, owner, core=0, process=proc)

    def toucher(t):
        yield from t.touch(shared["addr"], 8 * PAGE_SIZE, bytes_per_page=64)
        return proc.addr_space.node_histogram().tolist()

    assert drive(system, toucher, core=2, process=proc) == [0, 8]
