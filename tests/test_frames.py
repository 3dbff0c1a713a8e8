"""Unit tests for the per-node frame allocators."""

import numpy as np
import pytest

from repro.errors import OutOfMemory, SimulationError
from repro.kernel.frames import NODE_STRIDE_SHIFT, FrameAllocator, node_of_frame
from repro.util import MiB, PAGE_SIZE


def make(node=0, pages=64):
    return FrameAllocator(node, pages * PAGE_SIZE)


def test_alloc_free_roundtrip():
    fa = make()
    f = fa.alloc()
    assert fa.owns(f)
    assert fa.used == 1
    fa.free_frame(f)
    assert fa.used == 0
    assert fa.free == 64


def test_frame_ids_encode_node():
    fa0 = make(node=0)
    fa2 = make(node=2)
    assert node_of_frame(fa0.alloc()) == 0
    assert node_of_frame(fa2.alloc()) == 2


def test_node_of_frame_vectorized():
    fa = make(node=3)
    frames = fa.alloc_many(10)
    assert (node_of_frame(frames) == 3).all()


def test_exhaustion_raises():
    fa = make(pages=4)
    for _ in range(4):
        fa.alloc()
    with pytest.raises(OutOfMemory):
        fa.alloc()


def test_alloc_many_all_or_nothing():
    fa = make(pages=8)
    fa.alloc_many(6)
    with pytest.raises(OutOfMemory):
        fa.alloc_many(3)
    assert fa.used == 6  # failed request had no effect
    fa.alloc_many(2)
    assert fa.free == 0


def test_alloc_many_reuses_freed_frames():
    fa = make(pages=8)
    frames = fa.alloc_many(8)
    fa.free_many(frames[:4])
    again = fa.alloc_many(4)
    assert set(map(int, again)) == set(map(int, frames[:4]))


def test_double_free_detected():
    fa = make()
    f = fa.alloc()
    fa.free_frame(f)
    with pytest.raises(SimulationError, match="double free"):
        fa.free_frame(f)


def test_foreign_free_detected():
    fa0 = make(node=0)
    fa1 = make(node=1)
    f = fa1.alloc()
    with pytest.raises(SimulationError, match="not owned"):
        fa0.free_frame(f)


def test_lifetime_counters():
    fa = make()
    frames = fa.alloc_many(5)
    fa.free_many(frames)
    assert fa.total_allocs == 5
    assert fa.total_frees == 5


def test_unique_ids_across_nodes():
    fa0 = make(node=0, pages=16)
    fa1 = make(node=1, pages=16)
    f0 = set(map(int, fa0.alloc_many(16)))
    f1 = set(map(int, fa1.alloc_many(16)))
    assert not (f0 & f1)


def test_alloc_many_zero():
    fa = make()
    assert fa.alloc_many(0).size == 0


def test_capacity_from_bytes():
    fa = FrameAllocator(0, 2 * MiB)
    assert fa.capacity == 2 * MiB // PAGE_SIZE


def test_stride_large_enough_for_8gb_nodes():
    assert (8 << 30) // PAGE_SIZE < (1 << NODE_STRIDE_SHIFT)


def _scrambled(seed: int, pages: int = 256) -> FrameAllocator:
    """An allocator with half its frames used and a seeded shuffle of
    64 of them back on the free list, so list order is not id order."""
    rng = np.random.default_rng(seed)
    fa = make(pages=pages)
    fa.free_many(rng.permutation(fa.alloc_many(pages // 2))[:64])
    return fa


def _state(fa: FrameAllocator) -> tuple:
    return (
        fa._free[: fa._nfree].tolist(),
        fa._bump,
        fa.total_allocs,
        fa.total_frees,
        np.flatnonzero(fa._allocated).tolist(),
    )


@pytest.mark.parametrize("chunk", [1, 7, 16, 300])
@pytest.mark.parametrize("count", [0, 5, 37, 64, 100, 190])
def test_alloc_chunked_matches_per_chunk_alloc_many(count, chunk):
    """One ``alloc_chunked`` call returns the ids of the per-chunk
    ``alloc_many`` sequence (the migration path's pagevec loop) and
    leaves the same free list, bump pointer and counters: counts
    below, at and above the 64-entry free list, full and partial
    tail chunks, and a chunk straddling the end of the free list."""
    one, per_chunk = _scrambled(count), _scrambled(count)
    got = one.alloc_chunked(count, chunk)
    parts = [per_chunk.alloc_many(min(chunk, count - lo)) for lo in range(0, count, chunk)]
    want = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()
    assert _state(one) == _state(per_chunk)


def test_alloc_chunked_all_or_nothing():
    fa = _scrambled(3)
    before = _state(fa)
    with pytest.raises(OutOfMemory):
        fa.alloc_chunked(fa.free + 1, 16)
    assert _state(fa) == before


@pytest.mark.parametrize("count", [0, 9, 64, 150])
def test_alloc_seq_matches_single_allocs(count):
    """``alloc_seq(n)`` returns the ids of ``n`` successive ``alloc()``
    calls (LIFO pops, then the bump range), with the same end state."""
    seq, single = _scrambled(count), _scrambled(count)
    got = seq.alloc_seq(count)
    want = [single.alloc() for _ in range(count)]
    assert got.tolist() == want
    assert _state(seq) == _state(single)


def _array_bytes(fa: FrameAllocator) -> int:
    return sum(v.nbytes for v in vars(fa).values() if isinstance(v, np.ndarray))


def test_state_is_sized_by_frames_handed_out():
    """An 8 GiB node (2 Mi frames) holds arrays for the frames it has
    handed out, not for its memory."""
    fa = FrameAllocator(0, 8 << 30)
    assert _array_bytes(fa) < 64 * 1024
    fa.free_many(fa.alloc_many(1000))
    assert _array_bytes(fa) < 64 * 1024


def test_bitmap_marks_exactly_the_handed_out_frames():
    """After every allocation and free, the bitmap's set bits are the
    frames held, including across the bitmap's growth."""
    fa = make(node=1, pages=4096)
    held: set[int] = set()

    def check():
        assert (np.flatnonzero(fa._allocated) + fa._base).tolist() == sorted(held)

    held.add(fa.alloc())
    check()
    held.update(fa.alloc_many(1500).tolist())  # past the first bitmap size
    check()
    back = np.array(sorted(held)[::3])
    fa.free_many(back)
    held.difference_update(back.tolist())
    check()
    held.update(fa.alloc_seq(700).tolist())  # the whole free stack, then bump
    check()
    held.update(fa.alloc_chunked(900, 7).tolist())
    check()
    fa.free_many(np.array(sorted(held)))
    held.clear()
    check()


@pytest.mark.parametrize("pages", [64, 4096])
def test_free_of_never_handed_out_frame_is_a_double_free(pages):
    """A frame inside the node but past the bump pointer (and, on the
    larger node, past the bitmap's end) was never handed out."""
    fa = make(pages=pages)
    with pytest.raises(SimulationError, match="double free"):
        fa.free_frame(fa._base)  # nothing handed out yet
    frames = fa.alloc_many(4)
    for frame in (fa._base + 4, fa._base + pages - 1):
        with pytest.raises(SimulationError, match="double free"):
            fa.free_frame(frame)
    with pytest.raises(SimulationError, match="double free"):
        fa.free_many(np.array([frames[0], fa._base + pages - 1]))
    assert fa.used == 4


@pytest.mark.parametrize("order", [[0, 0], [1, 0, 2, 0], [3, 2, 1, 0, 3]])
def test_batch_listing_a_frame_twice_is_a_double_free(order):
    """Rejected before anything changes: otherwise the frame lands on
    the free stack twice and two later allocations share it."""
    fa = make()
    frames = fa.alloc_many(4)
    before = _state(fa)
    with pytest.raises(SimulationError, match="double free"):
        fa.free_many(frames[order])
    assert _state(fa) == before
    assert fa.used == 4
