"""Page geometry of blocked, row-major matrices.

Table 1's pivotal observation — next-touch only pays off once each
block is *page-independent* — is a pure consequence of layout: in a
row-major N x N float64 matrix, one block row of ``b`` elements spans
``b * 8`` bytes, so blocks narrower than 512 elements share 4-KiB pages
with their horizontal neighbours, and a single touch migrates data
belonging to several threads. This module computes exactly which pages
each block lives on, so the simulation reproduces that threshold
mechanistically instead of hard-coding it.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..util.units import PAGE_SHIFT, PAGE_SIZE

__all__ = ["BlockedMatrix"]


def _sorted_unique(pages: np.ndarray) -> np.ndarray:
    """``np.unique`` of an int64 page array, by sort and neighbour compare.

    Returns the same ascending, deduplicated int64 array. A plain
    ``np.unique`` fills a hash table and then sorts its keys, which costs
    several times more on the 100- to 2,000-page sets a block op builds
    (``docs/performance.md`` §11). The input is a concatenation
    of ascending runs (one per block, or per block row), which the
    stable sort merges rather than re-partitions.
    """
    pages = np.sort(pages, kind="stable")
    keep = np.empty(pages.size, dtype=bool)
    keep[:1] = True
    np.not_equal(pages[1:], pages[:-1], out=keep[1:])
    return pages[keep]


class BlockedMatrix:
    """Page-level view of an N x N row-major matrix split into b x b
    blocks, mapped at ``addr`` (which must be the start of its VMA)."""

    def __init__(self, addr: int, n: int, block: int, dtype_size: int = 8) -> None:
        if n <= 0 or block <= 0 or n % block != 0:
            raise ConfigurationError(f"matrix dim {n} must be a positive multiple of {block}")
        if dtype_size not in (4, 8):
            raise ConfigurationError("dtype_size must be 4 (float32) or 8 (float64)")
        if addr % PAGE_SIZE != 0:
            raise ConfigurationError("matrix must be page-aligned")
        self.addr = addr
        self.n = n
        self.block = block
        self.dtype_size = dtype_size
        self._cache: dict[tuple[int, int], np.ndarray] = {}

    # ------------------------------------------------------------ geometry ---
    @property
    def nb(self) -> int:
        """Blocks per dimension."""
        return self.n // self.block

    @property
    def nbytes(self) -> int:
        """Total matrix size in bytes."""
        return self.n * self.n * self.dtype_size

    @property
    def npages(self) -> int:
        """Pages covering the matrix."""
        return -(-self.nbytes // PAGE_SIZE)

    def row_bytes(self) -> int:
        """Bytes per full matrix row."""
        return self.n * self.dtype_size

    def blocks_page_independent(self) -> bool:
        """True when distinct blocks never share a page — the paper's
        >= 512-element (float64) threshold."""
        return (self.block * self.dtype_size) % PAGE_SIZE == 0

    # ------------------------------------------------------------ pages ------
    def block_pages(self, i: int, j: int) -> np.ndarray:
        """Sorted page indices (relative to ``addr``) of block (i, j)."""
        if not (0 <= i < self.nb and 0 <= j < self.nb):
            raise ConfigurationError(f"block ({i}, {j}) out of range")
        key = (i, j)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        s = self.dtype_size
        rows = np.arange(i * self.block, (i + 1) * self.block, dtype=np.int64)
        start = (rows * self.n + j * self.block) * s
        end = start + self.block * s - 1
        first = start >> PAGE_SHIFT
        last = end >> PAGE_SHIFT
        width = int((last - first).max()) + 1
        spread = first[:, None] + np.arange(width, dtype=np.int64)[None, :]
        mask = spread <= last[:, None]
        pages = _sorted_unique(spread[mask])
        self._cache[key] = pages
        return pages

    def blocks_pages(self, blocks: list[tuple[int, int]]) -> np.ndarray:
        """Sorted union of page indices over several blocks.

        Built afresh on every call (once per LU block op). The order is
        load-bearing: ``touch_pages`` faults pending pages in the order
        given, one ``nt_fault_batch`` per 512, so any other order would
        change the fault batches.
        """
        if not blocks:
            return np.empty(0, dtype=np.int64)
        return _sorted_unique(np.concatenate([self.block_pages(i, j) for i, j in blocks]))

    def trailing_submatrix_range(self, k: int) -> tuple[int, int]:
        """(address, nbytes) of rows ``k*b .. n`` — the region the LU's
        per-iteration next-touch hook marks."""
        if not (0 <= k <= self.nb):
            raise ConfigurationError(f"step {k} out of range")
        start_byte = k * self.block * self.row_bytes()
        aligned = (start_byte // PAGE_SIZE) * PAGE_SIZE
        nbytes = self.nbytes - aligned
        if nbytes <= 0:
            return self.addr, 0
        return self.addr + aligned, nbytes

    def pages_shared_with_neighbors(self, i: int, j: int) -> int:
        """How many of block (i,j)'s pages also hold other blocks' data
        (diagnostic for the Table 1 threshold analysis)."""
        mine = self.block_pages(i, j)
        shared = 0
        for dj in (-1, 1):
            jj = j + dj
            if 0 <= jj < self.nb:
                shared += int(np.intersect1d(mine, self.block_pages(i, jj)).size)
        return shared
