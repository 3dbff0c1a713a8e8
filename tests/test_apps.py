"""Tests for the application workloads (LU, matmul, BLAS1, streams)."""

import numpy as np
import pytest

from repro import System
from repro.apps.blas1 import StreamingBlas1
from repro.apps.lu import ThreadedLU
from repro.apps.matmul import ConcurrentMatmul
from repro.apps.streams import stream_copy
from repro.errors import ConfigurationError


# ------------------------------------------------------------------ LU ------
def test_lu_numeric_correctness_vs_numpy():
    """The simulated schedule executes a *real* blocked LU correctly."""
    system = System()
    lu = ThreadedLU(system, 128, 32, policy="nexttouch", numeric=True, num_threads=4)
    lu.run()
    assert lu.reconstruction_error() < 1e-8


def test_lu_numeric_correctness_static_policy():
    system = System()
    lu = ThreadedLU(system, 96, 24, policy="static", numeric=True, num_threads=3)
    lu.run()
    assert lu.reconstruction_error() < 1e-8


def test_lu_numeric_matches_scipy():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    system = System()
    lu = ThreadedLU(system, 64, 16, policy="static", numeric=True, num_threads=2)
    lu.run()
    # scipy's lu on the same original matrix (no pivoting happens for
    # the diagonally-dominant input, so P should be identity).
    p, l, u = scipy_linalg.lu(lu._original)
    assert np.allclose(p, np.eye(64))
    ours_l = np.tril(lu._data, -1) + np.eye(64)
    ours_u = np.triu(lu._data)
    assert np.allclose(ours_l, l, atol=1e-8)
    assert np.allclose(ours_u, u, atol=1e-8)


def test_lu_static_never_migrates():
    system = System()
    r = ThreadedLU(system, 1024, 256, policy="static").run()
    assert r.pages_migrated == 0
    assert r.nt_faults == 0
    assert r.elapsed_s > 0


def test_lu_nexttouch_migrates_and_reports():
    system = System()
    r = ThreadedLU(system, 1024, 256, policy="nexttouch").run()
    assert r.nt_faults > 0
    assert r.pages_migrated > 0
    assert not r.page_independent  # 256 * 8 = 2 KiB < page


def test_lu_page_independence_flag():
    system = System()
    r = ThreadedLU(system, 1024, 512, policy="static").run()
    assert r.page_independent


def test_lu_user_nexttouch_works_but_costs_more():
    """Section 3.4 / 4.5: the user-space scheme functions but its
    per-chunk overhead makes it worse than the kernel scheme at LU's
    granularities — why Table 1 omits it."""

    def time_of(policy):
        system = System()
        r = ThreadedLU(system, 2048, 256, policy=policy).run()
        return r.elapsed_s, system.kernel.stats.signals_delivered

    kernel_time, _ = time_of("nexttouch")
    user_time, signals = time_of("nexttouch-user")
    assert signals > 0  # it really went through SIGSEGV
    assert user_time > kernel_time * 1.1


def test_lu_dynamic_schedule_works_and_is_correct():
    system = System()
    lu = ThreadedLU(
        system, 128, 32, policy="nexttouch", schedule="dynamic", numeric=True, num_threads=4
    )
    result = lu.run()
    assert result.elapsed_s > 0
    assert lu.reconstruction_error() < 1e-8


def test_lu_schedule_validation():
    with pytest.raises(ConfigurationError):
        ThreadedLU(System(), 1024, 256, schedule="guided")


def test_lu_validation():
    system = System()
    with pytest.raises(ConfigurationError):
        ThreadedLU(system, 1000, 512)
    with pytest.raises(ConfigurationError):
        ThreadedLU(system, 1024, 256, policy="magic")


def test_lu_interleaved_initial_distribution():
    system = System()
    lu = ThreadedLU(system, 1024, 256, policy="static")
    lu.run()
    hist = system.kernel.processes[-1].addr_space.node_histogram()
    # Interleave-all: equal quarter per node.
    assert hist.sum() == 1024 * 1024 * 8 // 4096
    assert hist.max() - hist.min() <= 1


# -------------------------------------------------------------- matmul ------
def test_matmul_static_leaves_data_on_master_node():
    system = System()
    r = ConcurrentMatmul(system, 256, policy="static", num_threads=8).run()
    assert r.pages_migrated == 0
    hist = system.kernel.processes[-1].addr_space.node_histogram()
    assert hist[0] == hist.sum()  # everything on the master's node


def test_matmul_nexttouch_redistributes():
    system = System()
    r = ConcurrentMatmul(system, 256, policy="nexttouch", num_threads=8).run()
    assert r.pages_migrated > 0
    hist = system.kernel.processes[-1].addr_space.node_histogram()
    assert np.count_nonzero(hist) > 1  # data followed the workers


def test_matmul_user_nexttouch_works():
    system = System()
    # 16 threads span all four nodes, so 3/4 of the buffers migrate.
    r = ConcurrentMatmul(system, 128, policy="nexttouch-user", num_threads=16).run()
    assert r.pages_migrated > 0
    assert system.kernel.stats.signals_delivered > 0


def test_matmul_migration_pays_off_at_512():
    """Figure 8's crossover: by N=512, kernel NT beats static."""

    def time_of(n, policy):
        system = System()
        return ConcurrentMatmul(system, n, policy=policy).run().elapsed_s

    assert time_of(512, "nexttouch") < time_of(512, "static")
    assert time_of(1024, "nexttouch") < time_of(1024, "static")


def test_matmul_validation():
    system = System()
    with pytest.raises(ConfigurationError):
        ConcurrentMatmul(system, 128, policy="nope")


# --------------------------------------------------------------- BLAS1 ------
def test_blas1_migration_never_helps():
    def time_of(policy):
        system = System()
        return StreamingBlas1(
            system, 1 << 18, policy=policy, num_threads=8, repeats=8
        ).run().elapsed_s

    static = time_of("static")
    nexttouch = time_of("nexttouch")
    # Next-touch may only lose here (it pays migration for nothing).
    assert nexttouch >= static * 0.98


# -------------------------------------------------------------- streams ------
def test_stream_copy_throughput_matches_memcpy_target():
    system = System()
    result = stream_copy(system, 4096, 0, 1)
    assert 1500 <= result.throughput_mb_s <= 2000


def test_stream_copy_local_faster_than_2hop():
    r01 = stream_copy(System(), 2048, 0, 1).throughput_mb_s
    r03 = stream_copy(System(), 2048, 0, 3).throughput_mb_s
    assert r03 < r01
