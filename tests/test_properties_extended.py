"""Property-based tests over the newer subsystems (swap, fork, files)
and their interactions with migration.

These fuzz the *composition* of mechanisms: any interleaving of
touch / migrate / next-touch / swap-out / fork / write must preserve
page payloads and frame accounting.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Madvise, PROT_RW, System
from repro.kernel.swap import attach_swap
from repro.util import PAGE_SIZE

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_OPS = ("touch", "move", "nexttouch", "swap_out", "write")


@_SETTINGS
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(_OPS), st.integers(min_value=0, max_value=15)),
        min_size=1,
        max_size=12,
    ),
    npages=st.integers(min_value=2, max_value=24),
)
def test_mechanism_soup_preserves_payload(ops, npages):
    """Any op sequence ends with the original data readable and every
    frame accounted for."""
    system = System(track_contents=True)
    attach_swap(system.kernel)
    proc = system.create_process("soup")
    payload = np.arange(npages * 64, dtype=np.uint8) % 251

    def body(t):
        addr = yield from t.mmap(npages * PAGE_SIZE, PROT_RW)
        yield from t.touch(addr, npages * PAGE_SIZE)
        yield from t.write_bytes(addr, payload)
        for op, seed in ops:
            core = seed % 16
            if op == "touch":
                yield from t.touch(addr, npages * PAGE_SIZE, bytes_per_page=64)
            elif op == "move":
                yield from t.move_range(addr, npages * PAGE_SIZE, seed % 4)
            elif op == "nexttouch":
                yield from t.madvise(addr, npages * PAGE_SIZE, Madvise.NEXTTOUCH)
                yield from t.migrate_to(core)
                yield from t.touch(addr, npages * PAGE_SIZE, bytes_per_page=64, batch=4)
            elif op == "swap_out":
                yield from t.swap_out(addr, npages * PAGE_SIZE)
                yield from t.migrate_to(core)
            elif op == "write":
                yield from t.write_bytes(addr, payload)
        data = yield from t.read_bytes(addr, payload.size)
        return data

    thread = system.spawn(proc, 0, body)
    data = system.run_to(thread.join())
    assert (data == payload).all()
    # Conservation: resident + swapped == npages, no leaks elsewhere.
    resident = proc.addr_space.node_histogram().sum()
    swapped = system.kernel.swap.used
    assert resident + swapped == npages
    assert sum(a.used for a in system.kernel.allocators) == resident


@_SETTINGS
@given(
    writers=st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=4),
    npages=st.integers(min_value=1, max_value=8),
)
def test_fork_chain_write_isolation(writers, npages):
    """A chain of forks with arbitrary writers: every process sees its
    own data; frames are freed exactly once at the end."""
    system = System(track_contents=True)
    root = system.create_process("root")
    procs = [root]
    box = {}

    def setup(t):
        addr = yield from t.mmap(npages * PAGE_SIZE, PROT_RW)
        yield from t.touch(addr, npages * PAGE_SIZE)
        yield from t.write_bytes(addr, b"ROOT")
        box["addr"] = addr

    thread = system.spawn(root, 0, setup)
    system.run_to(thread.join())

    for i, core in enumerate(writers):

        def forker(t, i=i):
            child = yield from t.fork()
            return child

        thread = system.spawn(procs[-1], 0, forker)
        child = system.run_to(thread.join())
        procs.append(child)

        def writer(t, i=i):
            yield from t.write_bytes(box["addr"], f"CH{i:02d}".encode())

        thread = system.spawn(child, core, writer)
        system.run_to(thread.join())

    # Root still sees its original data.
    def reader(t):
        data = yield from t.read_bytes(box["addr"], 4)
        return bytes(data)

    thread = system.spawn(root, 0, reader)
    assert system.run_to(thread.join()) == b"ROOT"
    # Each child sees its own write.
    for i, child in enumerate(procs[1:]):
        thread = system.spawn(child, 0, reader)
        assert system.run_to(thread.join()) == f"CH{i:02d}".encode()
    # Teardown frees everything exactly once.
    for proc in reversed(procs):
        system.kernel.destroy_process(proc)
    assert sum(a.used for a in system.kernel.allocators) == 0
    assert system.kernel.frame_refs == {}


@_SETTINGS
@given(
    readers=st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=5),
    npages=st.integers(min_value=1, max_value=12),
)
def test_file_cache_single_copy_any_reader_order(readers, npages):
    """However many processes map a file from wherever, exactly one
    physical copy exists and all see the same bytes."""
    from repro.kernel.files import SimFile, mmap_file
    from repro.kernel.vma import PROT_READ

    system = System(track_contents=True)
    f = SimFile(system.kernel, "prop.bin", npages * PAGE_SIZE)
    f.write_initial(0, b"FILEDATA")
    for i, core in enumerate(readers):
        proc = system.create_process(f"r{i}")

        def body(t):
            addr = yield from mmap_file(t, f, PROT_READ)
            yield from t.touch(addr, npages * PAGE_SIZE, write=False, batch=4)
            data = yield from t.read_bytes(addr, 8)
            return bytes(data)

        thread = system.spawn(proc, core, body)
        assert system.run_to(thread.join()) == b"FILEDATA"
    assert sum(a.used for a in system.kernel.allocators) == npages
    assert f.cache_misses == npages  # one device read per page, ever
