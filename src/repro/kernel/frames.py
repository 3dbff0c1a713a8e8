"""Per-node physical frame allocators.

Frames are integers drawn from disjoint per-node ranges (node ``i``
owns ``[i * stride, i * stride + capacity)``), so ``frame // stride``
recovers the owning node in O(1) — the moral equivalent of Linux's
``page_to_nid``. Allocation is a free-stack-plus-bump design: O(1),
LIFO reuse (cache-warm, like the buddy allocator's per-cpu hot lists).

The allocator's state is sized by the frames it has handed out, not by
the node's memory: a NumPy bitmap over the local indices below the
bump pointer (catching double and foreign frees) and an int64 free
stack that grows as frames are freed, both doubling up to the node's
capacity. A System whose runs touch a few thousand pages of an 8 GiB
node pays for those pages, not for two million.
"""

from __future__ import annotations

import numpy as np

from ..errors import OutOfMemory, SimulationError
from ..util.units import PAGE_SIZE

__all__ = ["FrameAllocator", "NODE_STRIDE_SHIFT", "node_of_frame"]

#: log2 of the per-node frame-id stride (2^38 frames ~ 1 PiB per node).
NODE_STRIDE_SHIFT: int = 38
_STRIDE = 1 << NODE_STRIDE_SHIFT
#: Entries the bitmap and the free stack start with when first needed
#: (1 KiB and 8 KiB), unless the node has fewer frames.
_MIN_SLOTS = 1024


def node_of_frame(frame: int | np.ndarray) -> int | np.ndarray:
    """Owning NUMA node of a frame id (vectorized for arrays)."""
    return frame >> NODE_STRIDE_SHIFT


def _grown(arr: np.ndarray, need: int, keep: int, capacity: int) -> np.ndarray:
    """A zeroed array holding ``arr[:keep]`` with room for ``need``
    entries: ``arr``'s size doubled, at least ``need`` and
    ``_MIN_SLOTS``, at most ``capacity``."""
    out = np.zeros(min(capacity, max(need, 2 * arr.size, _MIN_SLOTS)), dtype=arr.dtype)
    out[:keep] = arr[:keep]
    return out


class FrameAllocator:
    """Physical page-frame allocator for one NUMA node."""

    def __init__(self, node_id: int, mem_bytes: int) -> None:
        if mem_bytes < PAGE_SIZE:
            raise ValueError("node must have at least one page of memory")
        self.node_id = node_id
        self.capacity = mem_bytes // PAGE_SIZE
        if self.capacity > _STRIDE:
            raise ValueError("node too large for frame-id stride")
        self._base = node_id << NODE_STRIDE_SHIFT
        self._bump = 0  # next never-used local index
        #: Allocation bitmap over local indices below its own size,
        #: which is at least the bump pointer: every index past it
        #: has never been handed out.
        self._allocated = np.zeros(0, dtype=bool)
        #: Free stack: ``_free[:_nfree]`` are the local indices returned
        #: to the pool, the top last. It grows as frames are freed, so
        #: a node that only allocates never builds one.
        self._free = np.zeros(0, dtype=np.int64)
        self._nfree = 0
        #: lifetime counters
        self.total_allocs = 0
        self.total_frees = 0

    # ------------------------------------------------------------ queries --
    @property
    def used(self) -> int:
        """Frames currently allocated."""
        return self._bump - self._nfree

    @property
    def free(self) -> int:
        """Frames currently available."""
        return self.capacity - self.used

    def owns(self, frame: int) -> bool:
        """True if ``frame`` belongs to this node's range."""
        return self._base <= frame < self._base + self.capacity

    # ---------------------------------------------------------- alloc/free --
    def alloc(self) -> int:
        """Allocate one frame; raises :class:`OutOfMemory` when full."""
        if self._nfree:
            self._nfree -= 1
            idx = int(self._free[self._nfree])
        elif self._bump < self.capacity:
            idx = self._bump
            if idx == self._allocated.size:
                self._allocated = _grown(self._allocated, idx + 1, idx, self.capacity)
            self._bump = idx + 1
        else:
            raise OutOfMemory(f"node {self.node_id} out of frames")
        self._allocated[idx] = True
        self.total_allocs += 1
        return self._base + idx

    def _take(self, count: int) -> tuple[np.ndarray, int]:
        """Claim ``count`` frames: the free stack's top ``k`` entries in
        stack order, then ``count - k`` fresh ones from the bump range.
        Returns ``(frame ids, k)``. All-or-nothing: raises
        :class:`OutOfMemory` without side effects if the node cannot
        satisfy the request."""
        if count < 0:
            raise ValueError("negative count")
        if count > self.free:
            raise OutOfMemory(f"node {self.node_id}: {count} frames requested, {self.free} free")
        k = min(count, self._nfree)
        top = self._nfree - k
        bump = self._bump + count - k
        if bump > self._allocated.size:
            self._allocated = _grown(self._allocated, bump, self._bump, self.capacity)
        picked = np.empty(count, dtype=np.int64)
        if k:
            picked[:k] = self._free[top : self._nfree]
            self._allocated[picked[:k]] = True
        if bump > self._bump:
            picked[k:] = np.arange(self._bump, bump, dtype=np.int64)
            self._allocated[self._bump : bump] = True
        self._nfree = top
        self._bump = bump
        self.total_allocs += count
        picked += self._base
        return picked, k

    def alloc_many(self, count: int) -> np.ndarray:
        """Allocate ``count`` frames at once (vectorized): the top of
        the free stack in stack order, then the bump range.

        All-or-nothing: raises :class:`OutOfMemory` without side effects
        if the node cannot satisfy the request.
        """
        return self._take(count)[0]

    def alloc_seq(self, count: int) -> np.ndarray:
        """Allocate ``count`` frames with ids identical to ``count``
        sequential :meth:`alloc` calls.

        :meth:`alloc_many` takes the top of the free stack in stack
        order; repeated :meth:`alloc` pops it LIFO. The turbo fault path
        replays per-page allocation in bulk, so it needs the per-call
        order (reversed stack top, then bump range) to keep frame
        ids — and therefore every downstream placement comparison —
        bit-identical with the per-page path. Allocator end state
        (free stack, bitmap, bump pointer, counters) matches both ways.
        """
        picked, k = self._take(count)
        picked[:k] = picked[:k][::-1]
        return picked

    def alloc_chunked(self, count: int, chunk: int) -> np.ndarray:
        """Allocate ``count`` frames with ids identical to successive
        :meth:`alloc_many` calls of ``chunk`` frames (the last one
        shorter), concatenated.

        Each :meth:`alloc_many` call takes the free stack's top ``k``
        entries in stack order, so the free-stack part of the result
        is the stack's top split into ``chunk``-sized blocks from the
        top down, taken top block first; the partial block left at the
        bottom goes last, and the bump range follows it. The migration run-op
        allocates a whole pagevec-chunked migration this way in one
        call. All-or-nothing, and the allocator end state matches the
        call sequence's.
        """
        if chunk < 1:
            raise ValueError("chunk must be positive")
        picked, k = self._take(count)
        tail = picked[:k].copy()
        front = k % chunk
        picked[: k - front] = tail[front:].reshape(-1, chunk)[::-1].ravel()
        picked[k - front : k] = tail[:front]
        return picked

    def free_frame(self, frame: int) -> None:
        """Return one frame to the pool; detects double/foreign frees."""
        self.free_many(np.asarray([frame], dtype=np.int64))

    def free_many(self, frames: np.ndarray) -> None:
        """Return frames to the pool (vectorized), pushing them on the
        free stack in the order given.

        Raises :class:`SimulationError`, changing nothing, if a frame
        lies outside this node's range (a foreign free) or is not
        currently allocated: already freed, never handed out, or
        listed twice in ``frames`` (a double free).
        """
        if frames.size == 0:
            return
        idxs = np.asarray(frames, dtype=np.int64) - self._base
        lo, hi = idxs.min(), idxs.max()
        if lo < 0 or hi >= self._bump:
            if lo < 0 or hi >= self.capacity:
                raise SimulationError(f"freeing frame not owned by node {self.node_id}")
            raise SimulationError(f"double free on node {self.node_id}")
        # Clear the batch in a copy of the bitmap span it covers: each
        # distinct allocated frame clears one bit, so fewer cleared bits
        # than frames means one was already free or is listed twice.
        # Linear in the batch and its span, with no sort: fig4 frees
        # 262,144-frame runs.
        span = self._allocated[lo : hi + 1].copy()
        span[idxs - lo] = False
        if np.count_nonzero(self._allocated[lo : hi + 1]) - np.count_nonzero(span) < idxs.size:
            raise SimulationError(f"double free on node {self.node_id}")
        self._allocated[lo : hi + 1] = span
        top = self._nfree + idxs.size
        if top > self._free.size:
            self._free = _grown(self._free, top, self._nfree, self.capacity)
        self._free[self._nfree : top] = idxs
        self._nfree = top
        self.total_frees += idxs.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FrameAllocator node={self.node_id} used={self.used}/{self.capacity}>"
