"""Tests for the BLAS substrate: cost model, block geometry, contention."""

import numpy as np
import pytest

from repro import Machine, System
from repro.blas import BlockedMatrix, BlasCostModel, ContentionTracker, locality_from_nodes
from repro.errors import ConfigurationError
from repro.util import PAGE_SIZE


@pytest.fixture
def machine():
    return Machine.opteron_8347he_quad()


# ----------------------------------------------------------- BlockedMatrix ---
def test_block_pages_512_doubles_is_page_independent():
    """The paper's threshold: 512 float64 per block row = one page."""
    m = BlockedMatrix(0, 4096, 512, dtype_size=8)
    assert m.blocks_page_independent()
    a = m.block_pages(0, 0)
    b = m.block_pages(0, 1)
    assert np.intersect1d(a, b).size == 0
    assert m.pages_shared_with_neighbors(1, 1) == 0


def test_block_pages_small_blocks_share_pages():
    m = BlockedMatrix(0, 4096, 64, dtype_size=8)
    assert not m.blocks_page_independent()
    a = m.block_pages(0, 0)
    b = m.block_pages(0, 1)
    # 64 * 8 = 512 bytes per block row: 8 blocks per page.
    assert np.intersect1d(a, b).size == a.size
    assert m.pages_shared_with_neighbors(2, 3) > 0


def test_block_pages_counts():
    m = BlockedMatrix(0, 4096, 512, dtype_size=8)
    # One page per block row.
    assert m.block_pages(3, 5).size == 512
    assert m.npages == 4096 * 4096 * 8 // PAGE_SIZE


def test_block_pages_cover_matrix_exactly():
    m = BlockedMatrix(0, 1024, 256, dtype_size=8)
    all_pages = m.blocks_pages([(i, j) for i in range(m.nb) for j in range(m.nb)])
    assert all_pages.size == m.npages
    assert all_pages[0] == 0
    assert all_pages[-1] == m.npages - 1


def test_trailing_submatrix_range():
    m = BlockedMatrix(0, 2048, 512, dtype_size=8)
    addr, nbytes = m.trailing_submatrix_range(0)
    assert (addr, nbytes) == (0, m.nbytes)
    addr, nbytes = m.trailing_submatrix_range(2)
    assert addr == 2 * 512 * 2048 * 8
    assert nbytes == m.nbytes - addr
    _, nbytes = m.trailing_submatrix_range(m.nb)
    assert nbytes == 0


def test_blocked_matrix_validation():
    with pytest.raises(ConfigurationError):
        BlockedMatrix(0, 1000, 512, 8)  # not a multiple
    with pytest.raises(ConfigurationError):
        BlockedMatrix(5, 1024, 512, 8)  # unaligned
    with pytest.raises(ConfigurationError):
        BlockedMatrix(0, 1024, 512, 2)  # bad dtype


def _raw_block_pages(m: BlockedMatrix, i: int, j: int) -> np.ndarray:
    """Every page each row of block (i, j) overlaps, duplicates kept."""
    s, b = m.dtype_size, m.block
    out = []
    for row in range(i * b, (i + 1) * b):
        start = (row * m.n + j * b) * s
        out.extend(range(start // PAGE_SIZE, (start + b * s - 1) // PAGE_SIZE + 1))
    return np.asarray(out, dtype=np.int64)


@pytest.mark.parametrize(
    "n, block, dtype_size",
    [
        # blocks share pages with their row neighbours
        (1024, 64, 8),
        (1024, 128, 8),
        (1024, 256, 8),
        (2048, 512, 4),
        # page-independent blocks
        (2048, 512, 8),
        (2048, 1024, 8),
        # matrix rows shorter than a page: a block's rows share pages
        (256, 64, 8),
        (256, 128, 8),
        (480, 48, 8),  # 384-byte block rows that straddle page boundaries
    ],
)
def test_page_sets_match_np_unique(n, block, dtype_size):
    """block_pages and blocks_pages return what ``np.unique`` returns
    for the same concatenation: the values, ascending, and int64."""
    m = BlockedMatrix(0, n, block, dtype_size)
    last = m.nb - 1
    for i, j in [(0, 0), (0, last), (last, 0), (last, last), (1, last // 2)]:
        want = np.unique(_raw_block_pages(m, i, j))
        got = m.block_pages(i, j)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want), (i, j)
    k = min(1, last)
    block_lists = [
        [(k, k)],  # getrf
        [(k, k), (k, last)],  # trsm_row
        [(k, k), (last, k)],  # trsm_col
        [(last, k), (k, last), (last, last)],  # gemm
        [(0, 0), (0, 1), (1, 0)],  # gemm over page-sharing neighbours
        [(last, last - 1), (last, last)],  # same-row blocks
    ]
    for blocks in block_lists:
        want = np.unique(np.concatenate([m.block_pages(i, j) for i, j in blocks]))
        got = m.blocks_pages(blocks)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want), blocks


def test_block_pages_float32_threshold():
    """Floats halve the byte width: 1024-wide blocks become the
    page-independent ones."""
    assert not BlockedMatrix(0, 4096, 512, 4).blocks_page_independent()
    assert BlockedMatrix(0, 4096, 1024, 4).blocks_page_independent()


# ------------------------------------------------------------- cost model ---
def test_flop_time_scales(machine):
    m = BlasCostModel(machine, flop_efficiency=0.5)
    assert m.flop_us(2e6) == pytest.approx(2 * m.flop_us(1e6))


def test_gemm_traffic_regimes(machine):
    m = BlasCostModel(machine, dtype_size=8, cache_sharers=1)
    fitting = m.gemm_traffic(128)  # 3*128^2*8 = 393 KiB < 2 MB
    assert fitting == pytest.approx(3 * 128 * 128 * 8)
    spilling = m.gemm_traffic(1024)  # 24 MiB >> 2 MB
    assert spilling > 50 * fitting


def test_partial_spill_transition_is_monotonic(machine):
    m = BlasCostModel.era_reference_blas(machine)
    traffic = [m.gemm_traffic(b) for b in (64, 128, 256, 512, 1024)]
    assert all(t2 > t1 for t1, t2 in zip(traffic, traffic[1:]))


def test_local_vs_remote_stall(machine):
    m = BlasCostModel(machine, dtype_size=8)
    local = m.stall_us(0, 1e6, {0: 1.0})
    remote = m.stall_us(0, 1e6, {3: 1.0})
    assert remote > local * 2


def test_stall_streaming_hides_remote(machine):
    """The BLAS1 model: prefetch hides latency even across HT."""
    m = BlasCostModel(machine, dtype_size=8)
    remote_blas3 = m.stall_us(0, 1e6, {3: 1.0})
    remote_blas1 = m.stall_us(0, 1e6, {3: 1.0}, streaming=True)
    assert remote_blas1 < remote_blas3 / 2


def test_stall_zero_for_empty_locality(machine):
    m = BlasCostModel(machine)
    assert m.stall_us(0, 1e6, {}) == 0.0
    assert m.stall_us(0, 0.0, {0: 1.0}) == 0.0


def test_op_costs_ordering(machine):
    m = BlasCostModel(machine, dtype_size=8)
    loc = {0: 1.0}
    gemm = m.gemm(0, 512, loc)
    trsm = m.trsm(0, 512, loc)
    getrf = m.getrf(0, 512, loc)
    assert gemm.flop_us > trsm.flop_us > getrf.flop_us
    assert gemm.total_us == gemm.flop_us + gemm.stall_us


def test_locality_from_nodes():
    nodes = np.asarray([0, 0, 1, 3, 3, 3, -1], dtype=np.int16)
    assert locality_from_nodes(nodes, 4) == {0: 2.0, 1: 1.0, 3: 3.0}
    assert locality_from_nodes(np.asarray([-1, -1]), 4) == {}


def test_cost_model_validation(machine):
    with pytest.raises(ConfigurationError):
        BlasCostModel(machine, flop_efficiency=0.0)
    with pytest.raises(ConfigurationError):
        BlasCostModel(machine, traffic_factor=0.5)
    with pytest.raises(ConfigurationError):
        BlasCostModel(machine, spill_tile=1)


# ------------------------------------------------------------- contention ---
def test_congestion_grows_with_streams(machine):
    tr = ContentionTracker(machine, congestion_alpha=0.5)
    assert tr.congestion(1, 0) == 1.0
    tokens = [tr.enter(0, [1]) for _ in range(4)]
    # 4 streams on the 1->0 link: 1 + 0.5 * 3.
    assert tr.congestion(1, 0) == pytest.approx(2.5)
    for t in tokens:
        tr.exit(t)
    assert tr.congestion(1, 0) == 1.0
    assert tr.active_link_streams() == {}


def test_controller_share_divides(machine):
    tr = ContentionTracker(machine)
    full = tr.controller_share(2)
    tokens = [tr.enter(2, [2]) for _ in range(4)]
    assert tr.controller_share(2) == pytest.approx(full / 4)
    for t in tokens:
        tr.exit(t)


def test_local_access_registers_no_links(machine):
    tr = ContentionTracker(machine)
    token = tr.enter(1, [1])
    assert token.links == []
    assert token.controllers == [1]
    tr.exit(token)


def test_two_hop_route_loads_both_links(machine):
    tr = ContentionTracker(machine)
    token = tr.enter(0, [3])  # nodes 0 and 3 are two hops apart
    assert len(token.links) == 2
    tr.exit(token)


def test_stall_uses_tracker_congestion(machine):
    m = BlasCostModel(machine, dtype_size=8)
    tr = ContentionTracker(machine, congestion_alpha=1.0)
    quiet = m.stall_us(0, 1e7, {1: 1.0}, tr)
    tokens = [tr.enter(0, [1]) for _ in range(6)]
    loud = m.stall_us(0, 1e7, {1: 1.0}, tr)
    for t in tokens:
        tr.exit(t)
    assert loud > quiet * 2
