"""Tests for file-backed mappings and the page cache."""

import numpy as np
import pytest

from conftest import drive, drive_many
from repro import PROT_READ, PROT_RW, System
from repro.errors import Errno, SyscallError
from repro.kernel.files import SimFile, mmap_file, page_cache_stats
from repro.util import PAGE_SIZE


def file_system():
    return System(track_contents=True)


def test_shared_mapping_reads_through_cache():
    system = file_system()
    proc = system.create_process("f")
    f = SimFile(system.kernel, "data.bin", 8 * PAGE_SIZE)
    f.write_initial(100, b"file-contents")

    def body(t):
        addr = yield from mmap_file(t, f, PROT_READ)
        data = yield from t.read_bytes(addr + 100, 13)
        yield from t.touch(addr, 8 * PAGE_SIZE, write=False)
        return bytes(data)

    assert drive(system, body, core=0, process=proc) == b"file-contents"
    stats = page_cache_stats(f)
    assert stats["cached_pages"] == 8
    assert stats["misses"] == 8


def test_second_mapper_hits_the_cache():
    system = file_system()
    f = SimFile(system.kernel, "hot.bin", 4 * PAGE_SIZE)
    proc_a = system.create_process("a")
    proc_b = system.create_process("b")

    def reader(t):
        addr = yield from mmap_file(t, f, PROT_READ)
        t0 = system.now
        yield from t.touch(addr, 4 * PAGE_SIZE, write=False)
        return system.now - t0

    cold = drive(system, reader, core=0, process=proc_a)
    warm = drive(system, reader, core=4, process=proc_b)
    assert warm < cold / 10  # no device I/O the second time
    assert page_cache_stats(f)["hits"] >= 4


def test_shared_mappers_share_frames():
    system = file_system()
    f = SimFile(system.kernel, "shared.bin", 4 * PAGE_SIZE)
    procs = [system.create_process(f"p{i}") for i in range(3)]
    addrs = {}

    for i, proc in enumerate(procs):

        def body(t, i=i):
            addr = yield from mmap_file(t, f, PROT_READ)
            yield from t.touch(addr, 4 * PAGE_SIZE, write=False)
            addrs[i] = addr

        drive(system, body, core=0, process=proc)
    used = sum(a.used for a in system.kernel.allocators)
    assert used == 4  # one physical copy for three mappers
    frames = [
        procs[i].addr_space.find_vma(addrs[i]).pt.frame.tolist() for i in range(3)
    ]
    assert frames[0] == frames[1] == frames[2]


def test_page_cache_first_touch_placement():
    """Cache pages land on the first reader's node."""
    system = file_system()
    f = SimFile(system.kernel, "place.bin", 4 * PAGE_SIZE)
    proc = system.create_process("p")

    def reader(t):
        addr = yield from mmap_file(t, f, PROT_READ)
        yield from t.touch(addr, 4 * PAGE_SIZE, write=False)
        vma = proc.addr_space.find_vma(addr)
        return vma.pt.node.tolist()

    nodes = drive(system, reader, core=13, process=proc)  # node 3
    assert nodes == [3, 3, 3, 3]


def test_private_mapping_cow_on_write():
    system = file_system()
    f = SimFile(system.kernel, "priv.bin", 2 * PAGE_SIZE)
    f.write_initial(0, b"AAAA")
    proc_w = system.create_process("writer")
    proc_r = system.create_process("reader")
    box = {}

    def writer(t):
        addr = yield from mmap_file(t, f, PROT_RW, shared=False)
        yield from t.write_bytes(addr, b"BBBB")
        data = yield from t.read_bytes(addr, 4)
        box["writer_sees"] = bytes(data)

    drive(system, writer, core=4, process=proc_w)

    def reader(t):
        addr = yield from mmap_file(t, f, PROT_READ, shared=False)
        data = yield from t.read_bytes(addr, 4)
        box["reader_sees"] = bytes(data)

    drive(system, reader, core=0, process=proc_r)
    assert box["writer_sees"] == b"BBBB"  # private copy
    assert box["reader_sees"] == b"AAAA"  # cache unchanged
    assert system.kernel.stats.cow_faults >= 1


def test_private_cow_copy_is_local_to_writer():
    system = file_system()
    f = SimFile(system.kernel, "local.bin", 4 * PAGE_SIZE)
    # Warm the cache from node 0 first.
    warmer = system.create_process("warm")

    def warm(t):
        addr = yield from mmap_file(t, f, PROT_READ)
        yield from t.touch(addr, 4 * PAGE_SIZE, write=False)

    drive(system, warm, core=0, process=warmer)
    proc = system.create_process("w")

    def writer(t):
        addr = yield from mmap_file(t, f, PROT_RW, shared=False)
        yield from t.touch(addr, 4 * PAGE_SIZE, write=True)
        return proc.addr_space.node_histogram().tolist()

    hist = drive(system, writer, core=9, process=proc)  # node 2
    assert hist == [0, 0, 4, 0]


def test_writable_shared_file_mapping_rejected():
    system = file_system()
    f = SimFile(system.kernel, "nope.bin", PAGE_SIZE)

    def body(t):
        yield from mmap_file(t, f, PROT_RW, shared=True)

    with pytest.raises(SyscallError) as exc:
        drive(system, body)
    assert exc.value.errno == Errno.EINVAL


def test_unmap_then_drop_cache_frees_everything():
    system = file_system()
    f = SimFile(system.kernel, "drop.bin", 4 * PAGE_SIZE)
    proc = system.create_process("d")

    def body(t):
        addr = yield from mmap_file(t, f, PROT_READ)
        yield from t.touch(addr, 4 * PAGE_SIZE, write=False)
        yield from t.munmap(addr, 4 * PAGE_SIZE)

    drive(system, body, core=0, process=proc)
    assert sum(a.used for a in system.kernel.allocators) == 4  # cache only
    assert f.drop_cache() == 4
    assert sum(a.used for a in system.kernel.allocators) == 0
    assert system.kernel.frame_refs == {}


def test_concurrent_readers_fault_once_per_page():
    system = file_system()
    f = SimFile(system.kernel, "race.bin", 16 * PAGE_SIZE)
    proc = system.create_process("race")
    box = {}

    def setup(t):
        box["addr"] = yield from mmap_file(t, f, PROT_READ)

    drive(system, setup, core=0, process=proc)

    def reader(t):
        yield from t.touch(box["addr"], 16 * PAGE_SIZE, write=False)

    drive_many(system, [(reader, 1), (reader, 5)], process=proc)
    assert page_cache_stats(f)["misses"] == 16  # no duplicate device reads
    assert sum(a.used for a in system.kernel.allocators) == 16




def test_fork_child_keeps_the_file_but_not_the_lock(checked_system):
    """A private read-only mapping of a 4-page file with page 0 faulted
    in, forked next to an ``mlock``ed buffer: the child's file VMA keeps
    the backing file, so a page first touched after the fork comes from
    the file, not from demand-zero; and no child VMA is ``mlocked``
    (memory locks are not inherited)."""
    system = checked_system
    f = SimFile(system.kernel, "fork.bin", 4 * PAGE_SIZE)
    f.write_initial(2 * PAGE_SIZE + 10, b"file-contents")
    parent = system.create_process("parent")
    box = {}

    def body(t):
        box["addr"] = yield from mmap_file(t, f, PROT_READ, shared=False)
        yield from t.touch(box["addr"], PAGE_SIZE, write=False)
        box["locked"] = yield from t.mmap(PAGE_SIZE, PROT_RW)
        yield from t.mlock(box["locked"], PAGE_SIZE)
        box["child"] = yield from t.fork()

    drive(system, body, core=0, process=parent)
    child, addr = box["child"], box["addr"]

    def reader(t):
        data = yield from t.read_bytes(addr + 2 * PAGE_SIZE + 10, 13)
        return bytes(data)

    assert drive(system, reader, core=0, process=parent) == b"file-contents"
    assert drive(system, reader, core=4, process=child) == b"file-contents"
    assert child.addr_space.find_vma(addr).file is f
    assert parent.addr_space.find_vma(box["locked"]).mlocked
    assert not any(v.mlocked for v in child.addr_space.vmas)
