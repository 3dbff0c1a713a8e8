"""Tests for the swap subsystem and the rejected swap-based next-touch."""

import numpy as np
import pytest

from conftest import drive
from repro import PROT_NONE, PROT_RW, System
from repro.errors import Errno, SyscallError
from repro.kernel.swap import SwapDevice, attach_swap, swapped_pages
from repro.nexttouch import LazyKernelNextTouch, SwapBasedNextTouch
from repro.util import PAGE_SIZE


def swap_system(**kwargs):
    system = System(track_contents=True, **kwargs)
    attach_swap(system.kernel)
    return system


def test_swap_out_frees_frames_and_records_slots():
    system = swap_system()
    proc = system.create_process("sw")

    def body(t):
        addr = yield from t.mmap(8 * PAGE_SIZE, PROT_RW)
        yield from t.touch(addr, 8 * PAGE_SIZE)
        used_before = system.kernel.allocators[0].used
        written = yield from t.swap_out(addr, 8 * PAGE_SIZE)
        vma = proc.addr_space.find_vma(addr)
        return written, used_before - system.kernel.allocators[0].used, swapped_pages(vma).size

    written, freed, on_swap = drive(system, body, core=0, process=proc)
    assert written == 8
    assert freed == 8
    assert on_swap == 8
    assert system.kernel.swap.used == 8


def test_swap_in_lands_on_toucher_node_with_data():
    """The rejected design does implement next-touch semantics."""
    system = swap_system()
    proc = system.create_process("swin")

    def body(t):
        addr = yield from t.mmap(4 * PAGE_SIZE, PROT_RW)
        payload = bytes(range(200))
        yield from t.write_bytes(addr + 50, payload)
        yield from t.swap_out(addr, 4 * PAGE_SIZE)
        yield from t.migrate_to(13)  # node 3
        data = yield from t.read_bytes(addr + 50, len(payload))
        partial = proc.addr_space.node_histogram().tolist()
        yield from t.touch(addr, 4 * PAGE_SIZE)
        return bytes(data) == payload, partial, proc.addr_space.node_histogram().tolist()

    ok, partial, full = drive(system, body, core=0, process=proc)
    assert ok
    assert partial == [0, 0, 0, 1]  # lazily: only the read page came back
    assert full == [0, 0, 0, 4]
    assert system.kernel.swap.used == 0  # slots released after swap-in


def test_swap_requires_device():
    system = System()

    def body(t):
        addr = yield from t.mmap(PAGE_SIZE, PROT_RW)
        yield from t.touch(addr, PAGE_SIZE)
        yield from t.swap_out(addr, PAGE_SIZE)

    with pytest.raises(SyscallError) as exc:
        drive(system, body)
    assert exc.value.errno == Errno.ENODEV


def test_swap_rejects_shared_mappings():
    system = swap_system()

    def body(t):
        addr = yield from t.mmap(PAGE_SIZE, PROT_RW, shared=True)
        yield from t.touch(addr, PAGE_SIZE)
        yield from t.swap_out(addr, PAGE_SIZE)

    with pytest.raises(SyscallError) as exc:
        drive(system, body)
    assert exc.value.errno == Errno.EINVAL


def test_swap_space_exhaustion():
    system = System(track_contents=True)
    attach_swap(system.kernel, SwapDevice(system.env, capacity_pages=4))

    def body(t):
        addr = yield from t.mmap(8 * PAGE_SIZE, PROT_RW)
        yield from t.touch(addr, 8 * PAGE_SIZE)
        yield from t.swap_out(addr, 8 * PAGE_SIZE)

    with pytest.raises(SyscallError) as exc:
        drive(system, body)
    assert exc.value.errno == Errno.ENOMEM


def test_swap_slots_survive_vma_split_and_merge():
    system = swap_system()
    proc = system.create_process("split")

    def body(t):
        addr = yield from t.mmap(8 * PAGE_SIZE, PROT_RW)
        yield from t.write_bytes(addr + 2 * PAGE_SIZE, b"keepme")
        yield from t.touch(addr, 8 * PAGE_SIZE)
        yield from t.swap_out(addr, 8 * PAGE_SIZE)
        # Split the VMA while pages are on swap, then restore.
        yield from t.mprotect(addr + 2 * PAGE_SIZE, 2 * PAGE_SIZE, PROT_NONE)
        yield from t.mprotect(addr + 2 * PAGE_SIZE, 2 * PAGE_SIZE, PROT_RW)
        data = yield from t.read_bytes(addr + 2 * PAGE_SIZE, 6)
        return bytes(data)

    assert drive(system, body, core=0, process=proc) == b"keepme"


def test_swap_based_next_touch_works_but_is_terrible():
    """Section 3.2's verdict, measured: the swap path migrates pages
    to the next toucher — at two orders of magnitude worse latency
    than the kernel next-touch."""

    def measure(strategy_factory, needs_swap):
        system = System()
        if needs_swap:
            attach_swap(system.kernel)
        proc = system.create_process("cmp")
        shared = {}

        def owner(t):
            addr = yield from t.mmap(64 * PAGE_SIZE, PROT_RW)
            yield from t.touch(addr, 64 * PAGE_SIZE)
            shared["addr"] = addr

        drive(system, owner, core=0, process=proc)
        strategy = strategy_factory()

        def worker(t):
            t0 = system.now
            yield from strategy.migrate(t, shared["addr"], 64 * PAGE_SIZE, None)
            yield from t.touch(shared["addr"], 64 * PAGE_SIZE, bytes_per_page=64)
            return system.now - t0

        elapsed = drive(system, worker, core=13, process=proc)
        hist = proc.addr_space.node_histogram().tolist()
        return elapsed, hist

    swap_time, swap_hist = measure(SwapBasedNextTouch, True)
    nt_time, nt_hist = measure(LazyKernelNextTouch, False)
    assert swap_hist == nt_hist == [0, 0, 0, 64]  # same end state...
    assert swap_time > nt_time * 30  # ...at disk speed


def test_device_counters():
    system = swap_system()

    def body(t):
        addr = yield from t.mmap(4 * PAGE_SIZE, PROT_RW)
        yield from t.touch(addr, 4 * PAGE_SIZE)
        yield from t.swap_out(addr, 4 * PAGE_SIZE)
        yield from t.touch(addr, 4 * PAGE_SIZE)

    drive(system, body)
    dev = system.kernel.swap
    assert dev.pages_out == 4
    assert dev.pages_in == 4


def test_mlock_pins_against_swap_out():
    """mlocked ranges refuse swap-out (EPERM, as Linux does)."""
    system = swap_system()
    proc = system.create_process("pin")

    def body(t):
        addr = yield from t.mmap(4 * PAGE_SIZE, PROT_RW)
        resident = yield from t.mlock(addr, 4 * PAGE_SIZE)
        assert resident == 4  # mlock faults the range in
        try:
            yield from t.swap_out(addr, 4 * PAGE_SIZE)
        except SyscallError as exc:
            return exc.errno
        return None

    errno = drive(system, body, core=0, process=proc)
    assert errno == Errno.EPERM
    # munlock re-enables swap-out.
    shared = {}

    def unlock_and_swap(t):
        addr = yield from t.mmap(2 * PAGE_SIZE, PROT_RW)
        yield from t.mlock(addr, 2 * PAGE_SIZE)
        yield from t.mlock(addr, 2 * PAGE_SIZE, lock=False)
        written = yield from t.swap_out(addr, 2 * PAGE_SIZE)
        return written

    assert drive(system, unlock_and_swap, core=0, process=proc) == 2
