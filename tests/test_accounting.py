"""Tests for the cost ledger and kernel statistics."""

import pytest

from conftest import drive
from repro import PROT_READ, PROT_RW, System
from repro.kernel.accounting import Ledger
from repro.kernel.files import SimFile, mmap_file
from repro.kernel.swap import attach_swap
from repro.util import PAGE_SIZE


def test_ledger_add_and_total():
    led = Ledger()
    led.add("a.x", 10.0)
    led.add("a.y", 5.0)
    led.add("b", 2.5)
    assert led.total() == pytest.approx(17.5)
    assert led.total("a.") == pytest.approx(15.0)
    assert led.total("a.x", "b") == pytest.approx(12.5)
    assert led.counts["a.x"] == 1


def test_ledger_reset():
    led = Ledger()
    led.add("x", 1.0)
    led.reset()
    assert led.total() == 0.0
    assert led.snapshot() == {}


def test_ledger_fractions_group_and_other():
    led = Ledger()
    led.add("copy.page", 60.0)
    led.add("control.pte", 30.0)
    led.add("misc", 10.0)
    frac = led.fractions({"copy": ("copy.",), "control": ("control.",)})
    assert frac["copy"] == pytest.approx(60.0)
    assert frac["control"] == pytest.approx(30.0)
    assert frac["other"] == pytest.approx(10.0)


def test_ledger_fractions_drop_empty_other():
    led = Ledger()
    led.add("copy.page", 1.0)
    frac = led.fractions({"copy": ("copy.",)})
    assert "other" not in frac
    assert frac["copy"] == pytest.approx(100.0)


def test_charge_advances_clock_and_records(system):
    def body(t):
        yield system.kernel.charge("test.tag", 123.0)
        return system.now

    assert drive(system, body) == pytest.approx(123.0)
    assert system.kernel.ledger.totals["test.tag"] == pytest.approx(123.0)


def test_kernel_stats_counters(system):
    def body(t):
        addr = yield from t.mmap(8 * PAGE_SIZE, PROT_RW)
        yield from t.touch(addr, 8 * PAGE_SIZE)
        yield from t.move_range(addr, 8 * PAGE_SIZE, 1)

    drive(system, body, core=0)
    stats = system.kernel.stats
    assert stats.pages_first_touched == 8
    assert stats.minor_faults == 8
    assert stats.pages_migrated == 8
    assert stats.tlb_shootdowns >= 8  # per-page flushes in move_pages


def test_node_free_pages_reflects_usage(system):
    free_before = system.kernel.node_free_pages()

    def body(t):
        addr = yield from t.mmap(16 * PAGE_SIZE, PROT_RW)
        yield from t.touch(addr, 16 * PAGE_SIZE)

    drive(system, body, core=0)
    free_after = system.kernel.node_free_pages()
    assert free_before[0] - free_after[0] == 16
    assert free_before[1:] == free_after[1:]


@pytest.mark.parametrize("slow", [False, True])
@pytest.mark.parametrize("op", ["cow_copy", "swap_out", "file_read"])
def test_timed_transfers_reach_the_ledger(op, slow):
    """All simulated time flows through the ledger: on one thread, a
    COW write storm's page copies, a forced swap-out's device write and
    a cold page-cache read each advance ``ledger.total()`` by the
    clock's advance, on the fast paths and the forced-slow path alike.
    The 64-page buffer is first-touched on node 0 and the measured
    thread runs on node 1."""
    system = System()
    kernel = system.kernel
    kernel.force_slow_path = slow
    attach_swap(kernel)
    proc = system.create_process("p")
    nbytes = 64 * PAGE_SIZE
    file = SimFile(kernel, "data.bin", nbytes)
    addrs = {}

    def setup(t):
        addrs["anon"] = yield from t.mmap(nbytes, PROT_RW)
        yield from t.touch(addrs["anon"], nbytes)
        if op == "cow_copy":
            yield from t.fork()
        elif op == "file_read":
            addrs["file"] = yield from mmap_file(t, file, PROT_READ)

    def measured(t):
        t0, booked = system.now, kernel.ledger.total()
        if op == "cow_copy":
            yield from t.touch(addrs["anon"], nbytes, write=True, batch=1)
        elif op == "swap_out":
            yield from t.swap_out(addrs["anon"], nbytes)
        else:
            yield from t.touch(addrs["file"], nbytes, write=False, batch=1)
        return system.now - t0, kernel.ledger.total() - booked

    drive(system, setup, core=0, process=proc)
    elapsed, booked = drive(
        system, measured, core=system.machine.cores_of_node(1)[0], process=proc
    )
    assert elapsed > 0
    assert booked == pytest.approx(elapsed)
