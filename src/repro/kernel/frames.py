"""Per-node physical frame allocators.

Frames are integers drawn from disjoint per-node ranges (node ``i``
owns ``[i * stride, i * stride + capacity)``), so ``frame // stride``
recovers the owning node in O(1) — the moral equivalent of Linux's
``page_to_nid``. Allocation is a free-list-plus-bump design: O(1),
LIFO reuse (cache-warm, like the buddy allocator's per-cpu hot lists),
and a NumPy bitmap catches double frees and foreign frees cheaply even
with millions of frames.
"""

from __future__ import annotations

import numpy as np

from ..errors import OutOfMemory, SimulationError
from ..util.units import PAGE_SIZE

__all__ = ["FrameAllocator", "NODE_STRIDE_SHIFT", "node_of_frame"]

#: log2 of the per-node frame-id stride (2^38 frames ~ 1 PiB per node).
NODE_STRIDE_SHIFT: int = 38
_STRIDE = 1 << NODE_STRIDE_SHIFT


def node_of_frame(frame: int | np.ndarray) -> int | np.ndarray:
    """Owning NUMA node of a frame id (vectorized for arrays)."""
    return frame >> NODE_STRIDE_SHIFT


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
        self._free: list[int] = []  # local indices returned to the pool
        self._allocated = np.zeros(self.capacity, dtype=bool)
        #: lifetime counters
        self.total_allocs = 0
        self.total_frees = 0

    # ------------------------------------------------------------ queries --
    @property
    def used(self) -> int:
        """Frames currently allocated."""
        return self._bump - len(self._free)

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
        if self._free:
            idx = self._free.pop()
        elif self._bump < self.capacity:
            idx = self._bump
            self._bump += 1
        else:
            raise OutOfMemory(f"node {self.node_id} out of frames")
        self._allocated[idx] = True
        self.total_allocs += 1
        return self._base + idx

    def alloc_many(self, count: int) -> np.ndarray:
        """Allocate ``count`` frames at once (vectorized).

        All-or-nothing: raises :class:`OutOfMemory` without side effects
        if the node cannot satisfy the request.
        """
        if count < 0:
            raise ValueError("negative count")
        if count > self.free:
            raise OutOfMemory(f"node {self.node_id}: {count} frames requested, {self.free} free")
        from_free = min(count, len(self._free))
        picked = np.empty(count, dtype=np.int64)
        if from_free:
            picked[:from_free] = self._free[len(self._free) - from_free :]
            del self._free[len(self._free) - from_free :]
        fresh = count - from_free
        if fresh:
            picked[from_free:] = np.arange(self._bump, self._bump + fresh, dtype=np.int64)
            self._bump += fresh
        self._allocated[picked] = True
        self.total_allocs += count
        return picked + self._base

    def alloc_seq(self, count: int) -> np.ndarray:
        """Allocate ``count`` frames with ids identical to ``count``
        sequential :meth:`alloc` calls.

        :meth:`alloc_many` drains the free list in *list* order;
        repeated :meth:`alloc` pops it LIFO. The turbo fault path
        replays per-page allocation in bulk, so it needs the per-call
        order (reversed free-list tail, then bump range) to keep frame
        ids — and therefore every downstream placement comparison —
        bit-identical with the per-page path. Allocator end state
        (free list, bitmap, bump pointer, counters) matches both ways.
        """
        if count < 0:
            raise ValueError("negative count")
        if count > self.free:
            raise OutOfMemory(f"node {self.node_id}: {count} frames requested, {self.free} free")
        from_free = min(count, len(self._free))
        picked = np.empty(count, dtype=np.int64)
        if from_free:
            tail = self._free[len(self._free) - from_free :]
            tail.reverse()
            picked[:from_free] = tail
            del self._free[len(self._free) - from_free :]
        fresh = count - from_free
        if fresh:
            picked[from_free:] = np.arange(self._bump, self._bump + fresh, dtype=np.int64)
            self._bump += fresh
        self._allocated[picked] = True
        self.total_allocs += count
        return picked + self._base

    def alloc_chunked(self, count: int, chunk: int) -> np.ndarray:
        """Allocate ``count`` frames with ids identical to successive
        :meth:`alloc_many` calls of ``chunk`` frames (the last one
        shorter), concatenated.

        Each :meth:`alloc_many` call takes the free list's last ``k``
        entries in list order, so the free-list part of the result is
        its tail split into ``chunk``-sized blocks from the end, taken
        last block first; the block left at the front of the tail goes
        last, and the bump range follows it. The migration run-op
        allocates a whole pagevec-chunked migration this way in one
        call. All-or-nothing, and the allocator end state matches the
        call sequence's.
        """
        if count < 0:
            raise ValueError("negative count")
        if chunk < 1:
            raise ValueError("chunk must be positive")
        if count > self.free:
            raise OutOfMemory(f"node {self.node_id}: {count} frames requested, {self.free} free")
        from_free = min(count, len(self._free))
        picked = np.empty(count, dtype=np.int64)
        if from_free:
            tail = np.asarray(self._free[len(self._free) - from_free :], dtype=np.int64)
            front = from_free % chunk
            picked[: from_free - front] = tail[front:].reshape(-1, chunk)[::-1].ravel()
            picked[from_free - front : from_free] = tail[:front]
            del self._free[len(self._free) - from_free :]
        fresh = count - from_free
        if fresh:
            picked[from_free:] = np.arange(self._bump, self._bump + fresh, dtype=np.int64)
            self._bump += fresh
        self._allocated[picked] = True
        self.total_allocs += count
        return picked + self._base

    def free_frame(self, frame: int) -> None:
        """Return one frame to the pool; detects double/foreign frees."""
        self.free_many(np.asarray([frame], dtype=np.int64))

    def free_many(self, frames: np.ndarray) -> None:
        """Return frames to the pool (vectorized)."""
        if frames.size == 0:
            return
        idxs = np.asarray(frames, dtype=np.int64) - self._base
        if np.any((idxs < 0) | (idxs >= self.capacity)):
            raise SimulationError(f"freeing frame not owned by node {self.node_id}")
        if not np.all(self._allocated[idxs]):
            raise SimulationError(f"double free on node {self.node_id}")
        self._allocated[idxs] = False
        self._free.extend(idxs.tolist())
        self.total_frees += idxs.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FrameAllocator node={self.node_id} used={self.used}/{self.capacity}>"
