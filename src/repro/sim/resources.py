"""Shared-resource primitives for the simulation.

Three kinds of resources model the contended parts of a NUMA machine:

* :class:`Mutex` / :class:`Semaphore` — FIFO sleeping locks, used for
  the simulated kernel's ``mmap_sem``, page-table locks and per-node
  LRU locks. Contention statistics are recorded so experiments can
  report *why* scalability flattens (Figure 7 of the paper).
* :class:`Barrier` — cyclic barrier for OpenMP-style thread teams.
* :class:`BandwidthResource` — a fluid-flow, processor-sharing channel
  with optional per-transfer rate caps; models HyperTransport links and
  per-node memory controllers (concurrent copies share the pipe).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from ..errors import SimulationError
from .engine import Environment, Event

__all__ = ["Mutex", "Semaphore", "Barrier", "RwLock", "BandwidthResource", "LockStats"]


class LockStats:
    """Aggregate contention statistics for a lock."""

    __slots__ = ("acquisitions", "contended", "wait_time", "hold_time", "max_queue")

    def __init__(self) -> None:
        self.acquisitions = 0  #: total successful acquires
        self.contended = 0  #: acquires that had to wait
        self.wait_time = 0.0  #: total µs spent queued
        self.hold_time = 0.0  #: total µs the lock was held
        self.max_queue = 0  #: peak number of waiters

    @property
    def contention_ratio(self) -> float:
        """Fraction of acquisitions that had to queue."""
        return self.contended / self.acquisitions if self.acquisitions else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LockStats(acq={self.acquisitions}, contended={self.contended}, "
            f"wait={self.wait_time:.1f}us, hold={self.hold_time:.1f}us)"
        )


class Semaphore:
    """Counting semaphore with FIFO wakeup.

    ``handoff_us`` models the cost of a *contended* ownership transfer
    (cacheline bounce plus wakeup latency): when a release passes the
    unit directly to a queued waiter, the waiter only proceeds after
    that delay. Uncontended acquire/release stays free, as it should.
    """

    def __init__(
        self, env: Environment, capacity: int = 1, name: str = "", handoff_us: float = 0.0
    ) -> None:
        if capacity < 1:
            raise ValueError("semaphore capacity must be >= 1")
        if handoff_us < 0:
            raise ValueError("negative handoff_us")
        self.env = env
        self.name = name
        self.capacity = capacity
        self.handoff_us = handoff_us
        self._available = capacity
        self._waiters: deque[tuple[Event, float]] = deque()
        self.stats = LockStats()

    @property
    def available(self) -> int:
        """Number of units currently free."""
        return self._available

    def can_acquire(self) -> bool:
        """Whether :meth:`acquire` would grant a unit at once: one is
        free and nobody is queued (the test it makes)."""
        return self._available > 0 and not self._waiters

    def acquire(self) -> Event:
        """Request one unit; yield the returned event to wait for it."""
        ev = Event(self.env)
        if self._available > 0 and not self._waiters:
            self._available -= 1
            self.stats.acquisitions += 1
            ev.succeed()
        else:
            self.stats.contended += 1
            self._waiters.append((ev, self.env.now))
            self.stats.max_queue = max(self.stats.max_queue, len(self._waiters))
        return ev

    def release(self) -> None:
        """Return one unit, waking the longest waiter if any."""
        if self._available >= self.capacity and not self._waiters:
            raise SimulationError(f"release of non-held semaphore {self.name!r}")
        if self._waiters:
            ev, enqueued = self._waiters.popleft()
            self.stats.acquisitions += 1
            self.stats.wait_time += self.env.now - enqueued
            if self.handoff_us > 0:
                delay = self.env.timeout(self.handoff_us)
                delay.callbacks.append(lambda _t, _ev=ev: _ev.succeed())
            else:
                ev.succeed()
        else:
            self._available += 1


class Mutex(Semaphore):
    """Binary FIFO mutex with hold-time accounting.

    Typical use inside a process generator::

        t0 = env.now
        yield mutex.acquire()
        try:
            yield env.timeout(critical_section_us)
        finally:
            mutex.release()

    The :meth:`locked` helper wraps exactly that pattern.
    """

    def __init__(self, env: Environment, name: str = "", handoff_us: float = 0.0) -> None:
        super().__init__(env, capacity=1, name=name, handoff_us=handoff_us)
        self._held_since: Optional[float] = None

    def acquire(self) -> Event:
        ev = super().acquire()
        if ev.triggered:
            self._held_since = self.env.now

        def _mark(_ev: Event) -> None:
            self._held_since = self.env.now

        if not ev.triggered and ev.callbacks is not None:
            ev.callbacks.append(_mark)
        return ev

    def release(self) -> None:
        if self._held_since is not None:
            self.stats.hold_time += self.env.now - self._held_since
            self._held_since = None
        super().release()

    @property
    def held(self) -> bool:
        """True while some process holds the mutex."""
        return self._available == 0

    def locked(self, duration: float, value: Any = None):
        """Generator: acquire, hold for ``duration`` µs, release.

        Yield-from this from a process::

            yield from lock.locked(2.5)
        """
        yield self.acquire()
        try:
            yield self.env.timeout(duration)
        finally:
            self.release()
        return value


class Barrier:
    """Cyclic barrier for a fixed-size party of processes.

    Each participant yields :meth:`wait`; the event for a given
    generation triggers when the ``parties``-th participant arrives.
    The barrier then resets for the next generation.
    """

    def __init__(self, env: Environment, parties: int, name: str = "") -> None:
        if parties < 1:
            raise ValueError("barrier needs at least one party")
        self.env = env
        self.parties = parties
        self.name = name
        self._count = 0
        self._gate = Event(env)
        self.generation = 0

    @property
    def waiting(self) -> int:
        """Number of parties currently blocked at the barrier."""
        return self._count

    def wait(self) -> Event:
        """Arrive at the barrier; yield the event to block until full."""
        self._count += 1
        gate = self._gate
        if self._count >= self.parties:
            self._count = 0
            self.generation += 1
            self._gate = Event(self.env)
            gate.succeed(self.generation)
        return gate


class RwLock:
    """Reader-writer lock with writer preference (like ``mmap_sem``).

    Any number of readers may hold the lock together; writers are
    exclusive. A queued writer blocks new readers (no writer
    starvation). Wakeups are FIFO within each class.
    """

    def __init__(self, env: Environment, name: str = "") -> None:
        self.env = env
        self.name = name
        self._readers = 0
        self._writer = False
        self._wait_readers: deque[tuple[Event, float]] = deque()
        self._wait_writers: deque[tuple[Event, float]] = deque()
        self.stats = LockStats()

    @property
    def readers(self) -> int:
        """Number of readers currently inside."""
        return self._readers

    def can_acquire_read(self) -> bool:
        """Whether :meth:`acquire_read` would grant at once: no writer
        holds or waits for the lock (the test it makes)."""
        return not self._writer and not self._wait_writers

    def acquire_read(self) -> Event:
        """Shared acquisition; yield the event to wait."""
        ev = Event(self.env)
        if not self._writer and not self._wait_writers:
            self._readers += 1
            self.stats.acquisitions += 1
            ev.succeed()
        else:
            self.stats.contended += 1
            self._wait_readers.append((ev, self.env.now))
            self.stats.max_queue = max(
                self.stats.max_queue, len(self._wait_readers) + len(self._wait_writers)
            )
        return ev

    def acquire_write(self) -> Event:
        """Exclusive acquisition; yield the event to wait."""
        ev = Event(self.env)
        if not self._writer and self._readers == 0:
            self._writer = True
            self.stats.acquisitions += 1
            ev.succeed()
        else:
            self.stats.contended += 1
            self._wait_writers.append((ev, self.env.now))
            self.stats.max_queue = max(
                self.stats.max_queue, len(self._wait_readers) + len(self._wait_writers)
            )
        return ev

    def release_read(self) -> None:
        """Drop a shared hold."""
        if self._readers <= 0:
            raise SimulationError(f"release_read of unheld rwlock {self.name!r}")
        self._readers -= 1
        self._dispatch()

    def release_write(self) -> None:
        """Drop the exclusive hold."""
        if not self._writer:
            raise SimulationError(f"release_write of unheld rwlock {self.name!r}")
        self._writer = False
        self._dispatch()

    def _dispatch(self) -> None:
        if self._writer or self._readers > 0 and self._wait_writers:
            return
        if self._wait_writers and self._readers == 0:
            ev, enq = self._wait_writers.popleft()
            self._writer = True
            self.stats.acquisitions += 1
            self.stats.wait_time += self.env.now - enq
            ev.succeed()
            return
        if not self._wait_writers:
            while self._wait_readers:
                ev, enq = self._wait_readers.popleft()
                self._readers += 1
                self.stats.acquisitions += 1
                self.stats.wait_time += self.env.now - enq
                ev.succeed()


class _Transfer:
    __slots__ = ("total", "remaining", "max_rate", "event", "rate", "started")

    def __init__(self, nbytes: float, max_rate: Optional[float], event: Event, now: float) -> None:
        self.total = float(nbytes)
        self.remaining = float(nbytes)
        self.max_rate = max_rate
        self.event = event
        self.rate = 0.0
        self.started = now


class BandwidthResource:
    """A shared channel with total capacity ``capacity`` bytes/µs.

    Concurrent transfers share the capacity by *water-filling*: every
    active transfer receives an equal share, except that a transfer
    never exceeds its own ``max_rate`` (spare capacity from capped
    transfers is redistributed to the others). This is the classic
    fluid-flow model of a bus/link under fair arbitration.

    Example: a 4 GB/s HyperTransport link carrying three page-copy
    streams whose source can each sustain only 1 GB/s moves
    3 GB/s aggregate; with five streams it saturates at 4 GB/s.
    """

    def __init__(self, env: Environment, capacity: float, name: str = "") -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = float(capacity)
        self.name = name
        self._active: list[_Transfer] = []
        self._last_update = env.now
        self._wake_generation = 0
        #: Total bytes fully delivered.
        self.bytes_transferred = 0.0
        #: Integral of utilized rate over time (bytes) for utilization stats.
        self._busy_integral = 0.0

    # -- public API ---------------------------------------------------------
    @property
    def active_transfers(self) -> int:
        """Number of in-flight transfers."""
        return len(self._active)

    def transfer(self, nbytes: float, max_rate: Optional[float] = None) -> Event:
        """Start moving ``nbytes``; the returned event triggers when done.

        ``max_rate`` (bytes/µs) caps this transfer's share — e.g. a
        single kernel thread copying pages cannot exceed the ~1 GB/s
        per-core copy rate even on an idle 4 GB/s link.
        """
        if nbytes < 0:
            raise ValueError("negative transfer size")
        ev = Event(self.env)
        if nbytes == 0:
            ev.succeed(0.0)
            return ev
        if max_rate is not None and max_rate <= 0:
            raise ValueError("max_rate must be positive")
        self._advance()
        self._active.append(_Transfer(nbytes, max_rate, ev, self.env.now))
        self._reschedule()
        return ev

    def utilization(self, since: float = 0.0) -> float:
        """Mean fraction of capacity used over ``[since, now]``."""
        self._advance()
        elapsed = self.env.now - since
        if elapsed <= 0:
            return 0.0
        return self._busy_integral / (self.capacity * elapsed)

    # -- fluid-flow machinery -------------------------------------------------
    def _allocate_rates(self) -> None:
        """Water-filling rate assignment among active transfers."""
        pending = list(self._active)
        remaining_capacity = self.capacity
        # Transfers with a max_rate below the fair share are satisfied
        # first; the rest split what's left equally.
        while pending:
            share = remaining_capacity / len(pending)
            capped = [t for t in pending if t.max_rate is not None and t.max_rate < share]
            if not capped:
                for t in pending:
                    t.rate = share
                break
            for t in capped:
                t.rate = t.max_rate  # type: ignore[assignment]
                remaining_capacity -= t.rate
                pending.remove(t)

    def _advance(self) -> None:
        """Progress all transfers up to ``env.now`` at their last rates."""
        dt = self.env.now - self._last_update
        if dt > 0 and self._active:
            for t in self._active:
                moved = t.rate * dt
                t.remaining -= moved
                self._busy_integral += moved
        self._last_update = self.env.now
        finished = [t for t in self._active if t.remaining <= 1e-6]
        if finished:
            for t in finished:
                self._active.remove(t)
                self.bytes_transferred += t.total
                t.event.succeed(self.env.now - t.started)

    def _time_eps(self) -> float:
        """Smallest time step resolvable at the current clock value.

        Below this, ``now + delay == now`` in float64 and a completion
        wake could re-fire forever without progress.
        """
        import math

        return max(1e-9, 8.0 * math.ulp(self.env.now))

    def _reschedule(self) -> None:
        """Recompute rates and schedule the next completion wakeup."""
        self._allocate_rates()
        self._wake_generation += 1
        if not self._active:
            return
        # Residual transfers whose completion delta would vanish in
        # float64 at the current clock value finish *now* — otherwise
        # the wake fires at an unchanged timestamp and loops forever.
        eps = self._time_eps()
        residual = [t for t in self._active if t.rate > 0 and t.remaining / t.rate <= eps]
        if residual:
            for t in residual:
                self._active.remove(t)
                self.bytes_transferred += t.total
                self._busy_integral += max(0.0, t.remaining)
                t.event.succeed(self.env.now - t.started)
            self._reschedule()
            return
        gen = self._wake_generation
        next_done = min(t.remaining / t.rate for t in self._active if t.rate > 0)
        wake = self.env.timeout(next_done)

        def _on_wake(_ev: Event) -> None:
            if gen != self._wake_generation:
                return  # superseded by a later join/finish
            self._advance()
            self._reschedule()

        wake.callbacks.append(_on_wake)
