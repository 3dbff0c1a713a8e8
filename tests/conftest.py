"""Shared fixtures and driver helpers for the test suite."""

import pytest

from repro import System


@pytest.fixture
def system():
    """A paper-platform system that carries page contents.

    It takes the same fast paths as production runs."""
    return System(track_contents=True)


@pytest.fixture
def fast_system():
    """A paper-platform system that elides page contents, as the
    experiments do; otherwise the same as ``system``."""
    return System()


@pytest.fixture
def checked_system():
    """A system whose kernel invariants are asserted at teardown.

    Use instead of ``system`` when a test should fail if it leaves the
    kernel in an inconsistent state, even though every individual
    operation succeeded (see docs/correctness.md)."""
    from repro.check import assert_invariants

    sys_ = System(track_contents=True)
    yield sys_
    assert_invariants(sys_.kernel)


def drive(sys_, body, core=0, process=None, name="test"):
    """Run a single thread body to completion; returns its value."""
    proc = process or sys_.create_process(name)
    thread = sys_.spawn(proc, core, body)
    return sys_.run_to(thread.join())


def drive_many(sys_, bodies_and_cores, process=None, name="test"):
    """Run several thread bodies concurrently; returns their values."""
    proc = process or sys_.create_process(name)
    threads = [sys_.spawn(proc, core, body) for body, core in bodies_and_cores]
    return [sys_.run_to(t.join()) for t in threads]
