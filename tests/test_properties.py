"""Property-based tests (hypothesis) on core invariants.

These exercise the data structures with adversarial inputs the
hand-written tests would not think of: random mmap/mprotect/madvise
sequences must keep the address space consistent; frame allocators must
conserve frames; migration must preserve placement totals and page
payloads; interleaving must be exact.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import Madvise, MemPolicy, PROT_NONE, PROT_READ, PROT_RW, System
from repro.check import DiffHarness, assert_invariants, generate_ops
from repro.kernel.frames import FrameAllocator
from repro.kernel.pagetable import PTE_COW, PTE_NEXTTOUCH, PTE_PRESENT, PTE_WRITE, PageTable
from repro.kernel.vma import PROT_WRITE
from repro.sim import BandwidthResource, Environment, Mutex
from repro.util import PAGE_SIZE

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------- frame pools ----
@_SETTINGS
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=1, max_value=32)), max_size=40
    )
)
def test_frame_allocator_conserves_frames(ops):
    fa = FrameAllocator(1, 256 * PAGE_SIZE)
    live: list[np.ndarray] = []
    for is_alloc, count in ops:
        if is_alloc and fa.free >= count:
            live.append(fa.alloc_many(count))
        elif not is_alloc and live:
            fa.free_many(live.pop())
    held = sum(a.size for a in live)
    assert fa.used == held
    assert fa.free == fa.capacity - held
    for arr in live:
        fa.free_many(arr)
    assert fa.used == 0


class _ListPool:
    """The reference pool: a Python list of free local indices and a
    bump pointer. ``pop`` is one ``alloc``; ``take`` is one
    ``alloc_many``, the list's tail in list order; frees append."""

    def __init__(self) -> None:
        self.free: list[int] = []
        self.bump = 0

    def pop(self) -> int:
        if self.free:
            return self.free.pop()
        self.bump += 1
        return self.bump - 1

    def take(self, count: int) -> list[int]:
        k = min(count, len(self.free))
        tail = self.free[len(self.free) - k :]
        del self.free[len(self.free) - k :]
        self.bump += count - k
        return tail + list(range(self.bump - (count - k), self.bump))


@_SETTINGS
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["alloc", "many", "seq", "chunked", "free"]),
            st.integers(min_value=1, max_value=40),
        ),
        max_size=40,
    )
)
def test_frame_allocator_matches_list_pool(ops):
    """Every allocation returns the ids the list-based pool hands out,
    in the same order, and the free stack ends equal to the list."""
    fa, ref = FrameAllocator(1, 256 * PAGE_SIZE), _ListPool()
    live: list[int] = []
    for kind, count in ops:
        if kind == "free":
            batch, live = live[:count], live[count:]
            batch = batch[::-1] if count % 2 else batch
            fa.free_many(np.asarray(batch, dtype=np.int64) + fa._base)
            ref.free.extend(batch)
            continue
        if fa.free < count:
            continue
        if kind == "alloc":
            got, want = [fa.alloc()], [ref.pop()]
        elif kind == "many":
            got, want = fa.alloc_many(count).tolist(), ref.take(count)
        elif kind == "seq":
            got, want = fa.alloc_seq(count).tolist(), [ref.pop() for _ in range(count)]
        else:
            chunk = 1 + count % 7
            got = fa.alloc_chunked(count, chunk).tolist()
            want = [f for lo in range(0, count, chunk) for f in ref.take(min(chunk, count - lo))]
        assert [f - fa._base for f in got] == want
        live += want
    assert fa._free[: fa._nfree].tolist() == ref.free
    assert fa._bump == ref.bump


# ------------------------------------------------------------ page table ----
@_SETTINGS
@given(
    n=st.integers(min_value=2, max_value=128),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_pagetable_mark_clear_roundtrip(n, seed):
    rng = np.random.default_rng(seed)
    pt = PageTable(n)
    populated = rng.random(n) < 0.7
    idx = np.nonzero(populated)[0]
    if idx.size:
        pt.map_pages(idx, idx + 100, np.zeros(idx.size, dtype=np.int16), True)
    marked = pt.mark_next_touch(slice(None))
    assert marked == idx.size
    pt.check_invariants()
    pt.clear_next_touch(slice(None), writable=True)
    pt.check_invariants()
    assert pt.present().sum() == idx.size
    assert not pt.next_touch().any()


@_SETTINGS
@given(
    n=st.integers(min_value=2, max_value=64),
    at=st.integers(min_value=1, max_value=63),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_pagetable_split_preserves_every_pte(n, at, seed):
    if at >= n:
        at = n - 1
    rng = np.random.default_rng(seed)
    pt = PageTable(n)
    idx = np.nonzero(rng.random(n) < 0.5)[0]
    if idx.size:
        pt.map_pages(idx, idx + 7, np.full(idx.size, 2, dtype=np.int16), False)
    frames_before = pt.frame.copy()
    left, right = pt.split(at)
    rejoined = np.concatenate([left.frame, right.frame])
    assert (rejoined == frames_before).all()


# ------------------------------------------------------- address spaces ----
@_SETTINGS
@given(
    data=st.data(),
    npages=st.integers(min_value=4, max_value=64),
)
def test_random_mprotect_sequences_keep_space_consistent(data, npages):
    system = System()
    proc = system.create_process("prop")
    space = proc.addr_space
    vma = space.mmap(npages * PAGE_SIZE, PROT_RW, name="buf")
    base = vma.start
    for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
        start = data.draw(st.integers(min_value=0, max_value=npages - 1))
        length = data.draw(st.integers(min_value=1, max_value=npages - start))
        prot = data.draw(st.sampled_from([PROT_NONE, PROT_READ, PROT_RW]))
        space.apply_protection(base + start * PAGE_SIZE, length * PAGE_SIZE, prot)
        assert_invariants(system.kernel)
    # Page count over the original range is conserved.
    total = sum(
        stop - first for _v, first, stop in space.range_segments(base, npages * PAGE_SIZE)
    )
    assert total == npages


@_SETTINGS
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_interleave_distribution_is_exact(seed):
    rng = np.random.default_rng(seed)
    nodes = tuple(sorted(rng.choice(4, size=rng.integers(1, 5), replace=False).tolist()))
    npages = int(rng.integers(4, 128))
    system = System()
    proc = system.create_process("ilv")

    def body(t):
        addr = yield from t.mmap(
            npages * PAGE_SIZE, PROT_RW, policy=MemPolicy.interleave(*nodes)
        )
        yield from t.touch(addr, npages * PAGE_SIZE, batch=16)
        return proc.addr_space.node_histogram()

    thread = system.spawn(proc, 0, body)
    hist = system.run_to(thread.join())
    for node in range(4):
        expected = sum(1 for v in range(npages) if nodes[v % len(nodes)] == node)
        assert hist[node] == expected


# ------------------------------------------------------------- migration ----
@_SETTINGS
@given(
    npages=st.integers(min_value=1, max_value=48),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_random_move_pages_preserve_contents_and_totals(npages, seed):
    rng = np.random.default_rng(seed)
    system = System(track_contents=True)
    proc = system.create_process("mig")
    payload = rng.integers(0, 256, size=64, dtype=np.uint8)

    def body(t):
        addr = yield from t.mmap(npages * PAGE_SIZE, PROT_RW)
        yield from t.touch(addr, npages * PAGE_SIZE)
        yield from t.write_bytes(addr, payload)
        for _ in range(3):
            pages = addr + PAGE_SIZE * rng.permutation(npages)[: rng.integers(1, npages + 1)]
            dests = rng.integers(0, 4, size=pages.size)
            yield from t.move_pages(np.sort(pages), dests)
        data = yield from t.read_bytes(addr, 64)
        return data

    thread = system.spawn(proc, 0, body)
    data = system.run_to(thread.join())
    assert (data == payload).all()
    assert proc.addr_space.node_histogram().sum() == npages


@_SETTINGS
@given(
    npages=st.integers(min_value=1, max_value=64),
    core=st.integers(min_value=0, max_value=15),
)
def test_next_touch_always_lands_on_toucher_node(npages, core):
    system = System()
    proc = system.create_process("nt")

    def body(t):
        addr = yield from t.mmap(npages * PAGE_SIZE, PROT_RW)
        yield from t.touch(addr, npages * PAGE_SIZE, batch=16)
        yield from t.madvise(addr, npages * PAGE_SIZE, Madvise.NEXTTOUCH)
        yield from t.migrate_to(core)
        yield from t.touch(addr, npages * PAGE_SIZE, bytes_per_page=64, batch=8)
        return proc.addr_space.node_histogram()

    thread = system.spawn(proc, 0, body)
    hist = system.run_to(thread.join())
    node = system.machine.node_of_core(core)
    assert hist[node] == npages
    assert hist.sum() == npages


# ---------------------------------------------------------------- engine ----
@_SETTINGS
@given(
    holds=st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=10)
)
def test_mutex_serializes_any_schedule(holds):
    env = Environment()
    lock = Mutex(env)
    intervals = []

    def worker(hold):
        yield lock.acquire()
        start = env.now
        yield env.timeout(hold)
        lock.release()
        intervals.append((start, env.now))

    for hold in holds:
        env.process(worker(hold))
    env.run()
    intervals.sort()
    for (s1, e1), (s2, _e2) in zip(intervals, intervals[1:]):
        assert s2 >= e1 - 1e-9  # no overlap ever
    assert env.now == pytest.approx(sum(holds))


@_SETTINGS
@given(
    sizes=st.lists(st.floats(min_value=1.0, max_value=1e5), min_size=1, max_size=8)
)
def test_bandwidth_resource_conserves_work(sizes):
    env = Environment()
    link = BandwidthResource(env, capacity=100.0)

    def proc(nbytes):
        yield link.transfer(nbytes)

    for nbytes in sizes:
        env.process(proc(nbytes))
    env.run()
    assert link.bytes_transferred == pytest.approx(sum(sizes), rel=1e-6)
    # Total time is bounded by serial/parallel extremes.
    assert env.now >= max(sizes) / 100.0 - 1e-6
    assert env.now <= sum(sizes) / 100.0 + 1e-6


# ----------------------------------------------------- differential screens --
#: A step that changes nothing on either side: migrate_pages from a node
#: to itself.
_NEUTRAL_STEP = {"kind": "migrate_pages", "proc": "p0", "core": 0, "src": 0, "dst": 0}
_FLAG_OF = {"P": PTE_PRESENT, "W": PTE_WRITE, "NT": PTE_NEXTTOUCH, "COW": PTE_COW}


@_SETTINGS
@given(
    seed=st.integers(min_value=1235, max_value=1294),
    field=st.sampled_from(["P", "W", "NT", "COW", "node", "refs", "prot", "shared", "numa_hit"]),
    data=st.data(),
)
def test_a_corrupted_compared_field_fails_the_next_step(seed, field, data):
    """The invariant screens and the packed-page diff together miss no
    single corrupted field they compare: after one change to a fuzz
    end state, a step that changes nothing must fail."""
    harness = DiffHarness()
    ops = generate_ops(seed, 20)
    assert harness.run(ops) is None
    kernel = harness.kernel
    vmas = [vma for proc in kernel.processes for vma in proc.addr_space.vmas]
    assume(vmas)
    vma = data.draw(st.sampled_from(vmas))
    page = data.draw(st.integers(min_value=0, max_value=vma.npages - 1))
    if field in _FLAG_OF:
        vma.pt.flags[page] ^= _FLAG_OF[field]
    elif field == "node":
        shift = data.draw(st.integers(min_value=1, max_value=kernel.machine.num_nodes))
        vma.pt.node[page] = (int(vma.pt.node[page]) + 1 + shift) % (kernel.machine.num_nodes + 1) - 1
    elif field == "refs":
        frames = [int(f) for v in vmas for f in v.pt.frame if f >= 0]
        assume(frames)
        frame = data.draw(st.sampled_from(frames))
        kernel.frame_refs[frame] = kernel.frame_refs.get(frame, 1) + data.draw(st.sampled_from([-1, 1]))
    elif field == "prot":
        vma.prot ^= data.draw(st.sampled_from([PROT_READ, PROT_WRITE]))
    elif field == "shared":
        vma.shared = not vma.shared
    else:
        node = data.draw(st.integers(min_value=0, max_value=kernel.machine.num_nodes - 1))
        kernel.numastat.numa_hit[node] += data.draw(st.sampled_from([-1, 1]))
    failure = harness.step(len(ops), _NEUTRAL_STEP)
    assert failure is not None and failure.kind in ("invariant", "divergence"), field
