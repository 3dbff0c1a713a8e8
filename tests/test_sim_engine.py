"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Interrupt, SEC, USEC


def test_timeout_advances_clock():
    env = Environment()
    done = []

    def proc():
        yield env.timeout(5.0)
        done.append(env.now)
        yield env.timeout(2.5)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [5.0, 7.5]


def test_time_constants():
    assert SEC == 1e6 * USEC


def test_process_return_value():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        return 42

    p = env.process(proc())
    assert env.run(until=p) == 42


def test_process_waits_for_process():
    env = Environment()
    order = []

    def child():
        yield env.timeout(3.0)
        order.append("child")
        return "payload"

    def parent():
        value = yield env.process(child())
        order.append("parent")
        return value

    p = env.process(parent())
    assert env.run(until=p) == "payload"
    assert order == ["child", "parent"]


def test_same_time_events_fifo_order():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in range(5):
        env.process(proc(tag))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_exception_propagates_to_waiter():
    env = Environment()

    def child():
        yield env.timeout(1.0)
        raise ValueError("boom")

    def parent():
        with pytest.raises(ValueError, match="boom"):
            yield env.process(child())
        return "handled"

    p = env.process(parent())
    assert env.run(until=p) == "handled"


def test_unhandled_process_exception_surfaces_at_run():
    env = Environment()

    def bad():
        yield env.timeout(1.0)
        raise RuntimeError("unhandled")

    p = env.process(bad())
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run(until=p)


def test_event_succeed_value():
    env = Environment()
    ev = env.event()
    got = []

    def waiter():
        got.append((yield ev))

    def trigger():
        yield env.timeout(2.0)
        ev.succeed("hello")

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert got == ["hello"]


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_run_until_time():
    env = Environment()
    log = []

    def ticker():
        while True:
            yield env.timeout(10.0)
            log.append(env.now)

    env.process(ticker())
    env.run(until=35.0)
    assert log == [10.0, 20.0, 30.0]
    assert env.now == 35.0


def test_all_of_collects_values():
    env = Environment()

    def proc():
        t1 = env.timeout(5.0, value="a")
        t2 = env.timeout(3.0, value="b")
        values = yield env.all_of([t1, t2])
        return values

    p = env.process(proc())
    assert env.run(until=p) == ["a", "b"]
    assert env.now == 5.0


def test_any_of_returns_first():
    env = Environment()

    def proc():
        slow = env.timeout(50.0, value="slow")
        fast = env.timeout(1.0, value="fast")
        ev, value = yield env.any_of([slow, fast])
        assert ev is fast
        return value

    p = env.process(proc())
    assert env.run(until=p) == "fast"
    assert env.now == 1.0


def test_interrupt_delivers_cause():
    env = Environment()
    caught = []

    def sleeper():
        try:
            yield env.timeout(100.0)
        except Interrupt as intr:
            caught.append((env.now, intr.cause))

    def interrupter(target):
        yield env.timeout(4.0)
        target.interrupt("wake-up")

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()
    assert caught == [(4.0, "wake-up")]


def test_interrupt_finished_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(1.0)

    p = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_yield_non_event_is_error():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError, match="must yield Events"):
        env.run()


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_deadlock_detected_when_waiting_on_dead_event():
    env = Environment()
    ev = env.event()

    def waiter():
        yield ev

    p = env.process(waiter())
    with pytest.raises(SimulationError, match="deadlock"):
        env.run(until=p)


def test_events_processed_counter():
    env = Environment()

    def proc():
        for _ in range(10):
            yield env.timeout(1.0)

    env.process(proc())
    env.run()
    assert env.events_processed >= 10


def test_horizon_is_set_only_inside_a_float_run():
    """``env.horizon`` reads the float ``until`` while that run is in
    progress and ``None`` otherwise (the kernel's turbo gate tests it)."""
    env = Environment()
    seen = []

    def proc():
        seen.append(env.horizon)
        yield env.timeout(10.0)
        seen.append(env.horizon)

    env.process(proc())
    env.run(until=5.0)
    assert env.horizon is None
    env.run()
    assert seen == [5.0, None]
