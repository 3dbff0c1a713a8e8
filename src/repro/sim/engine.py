"""Discrete-event simulation engine.

A small, dependency-free engine in the style of SimPy: an
:class:`Environment` owns a virtual clock and an event queue;
:class:`Process` objects are Python generators that ``yield`` events to
wait for them. The engine is the substrate for every simulated thread,
lock acquisition, page copy and TLB shootdown in the repro package.

Time unit
---------
The clock is a ``float`` measured in **microseconds**. Helper constants
:data:`USEC`, :data:`MSEC` and :data:`SEC` make call sites explicit::

    yield env.timeout(160 * USEC)     # move_pages base overhead
    yield env.timeout(2.6 * SEC)      # an LU factorization

Determinism
-----------
Events scheduled for the same instant fire in FIFO scheduling order
(a monotonically increasing sequence number breaks ties), so a given
program produces the same trace on every run.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from ..errors import SimulationError

__all__ = [
    "USEC",
    "MSEC",
    "SEC",
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "AnyOf",
]

#: One microsecond — the base clock unit.
USEC: float = 1.0
#: One millisecond in clock units.
MSEC: float = 1e3
#: One second in clock units.
SEC: float = 1e6

# Event lifecycle states.
_PENDING = 0
_TRIGGERED = 1  # scheduled, will be processed by the loop
_PROCESSED = 2  # callbacks have run


class Interrupt(Exception):
    """Thrown into a :class:`Process` by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value passed to ``interrupt``.
    """

    def __init__(self, cause: Any = None) -> None:
        self.cause = cause
        super().__init__(cause)


class Event:
    """A happening at a point in simulated time.

    Processes wait for events by yielding them. An event is *triggered*
    by :meth:`succeed` or :meth:`fail`; its callbacks run when the
    environment's loop reaches it.
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._state = _PENDING

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (or exception) scheduled."""
        return self._state >= _TRIGGERED

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The event's value; raises if the event failed or is pending."""
        if not self.triggered:
            raise SimulationError("value of untriggered event")
        if self._exception is not None:
            raise self._exception
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        self._state = _TRIGGERED
        self.env._push(self, 0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception (re-raised in waiters)."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() needs an exception instance")
        self._exception = exception
        self._state = _TRIGGERED
        self.env._push(self, 0.0)
        return self

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._state = _PROCESSED
        if callbacks:
            for cb in callbacks:
                cb(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} at t={self.env.now:.3f} state={self._state}>"


class Timeout(Event):
    """An event that triggers after a fixed delay."""

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self._value = value
        self._state = _TRIGGERED
        env._push(self, delay)


class Process(Event):
    """A generator-based coroutine running inside the simulation.

    The generator may yield:

    * an :class:`Event` — the process resumes when it triggers, with the
      event's value sent back (or its exception thrown in);
    * another :class:`Process` — waits for its completion (a Process is
      an Event that triggers with the generator's return value).

    As an :class:`Event`, the process itself triggers when its generator
    returns (value = return value) or raises (failure).
    """

    def __init__(self, env: "Environment", generator: Generator, name: str = "") -> None:
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise TypeError(f"Process needs a generator, got {type(generator)!r}")
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        # Bootstrap: resume immediately at the current time.
        start = Event(env)
        start._state = _TRIGGERED
        env._push(start, 0.0)
        start.callbacks.append(self._resume)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state == _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a
        process blocked on an event detaches it from that event.
        """
        if not self.is_alive:
            raise SimulationError("cannot interrupt a finished process")
        if self._target is self:
            raise SimulationError("process cannot interrupt itself synchronously")
        # Deliver via a failed one-shot event so ordering stays FIFO.
        kick = Event(self.env)
        kick._exception = Interrupt(cause)
        kick._state = _TRIGGERED
        self.env._push(kick, 0.0)
        self._detach()
        kick.callbacks.append(self._resume)

    def _detach(self) -> None:
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None

    def _resume(self, trigger: Event) -> None:
        self._target = None
        try:
            if trigger._exception is not None:
                event = self._generator.throw(trigger._exception)
            else:
                event = self._generator.send(trigger._value)
        except StopIteration as stop:
            self._value = stop.value
            self._state = _TRIGGERED
            self.env._push(self, 0.0)
            return
        except BaseException as exc:
            self._exception = exc
            self._state = _TRIGGERED
            self.env._push(self, 0.0)
            return
        if not isinstance(event, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {event!r}; processes must yield Events"
            )
        if event.callbacks is None:
            # Already processed: resume immediately (next loop step).
            kick = Event(self.env)
            kick._value = event._value
            kick._exception = event._exception
            kick._state = _TRIGGERED
            self.env._push(kick, 0.0)
            kick.callbacks.append(self._resume)
        else:
            event.callbacks.append(self._resume)
            self._target = event


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._pending = 0
        for ev in self._events:
            if ev.env is not env:
                raise SimulationError("condition mixes events from different environments")
        # Count pending events first so _observe_done sees the final
        # count even when some constituents are already processed.
        already_done = [ev for ev in self._events if ev.callbacks is None]
        for ev in self._events:
            if ev.callbacks is not None:
                self._pending += 1
                ev.callbacks.append(self._observe)
        for ev in already_done:
            self._observe_done(ev)
        self._check_empty()

    def _check_empty(self) -> None:
        if not self._events and self._state == _PENDING:
            self.succeed([])

    def _observe(self, ev: Event) -> None:
        self._pending -= 1
        self._observe_done(ev)

    def _observe_done(self, ev: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when every constituent event has been processed.

    Value is the list of constituent values in construction order.
    Fails as soon as any constituent fails.
    """

    def _observe_done(self, ev: Event) -> None:
        if self._state != _PENDING:
            return
        if ev._exception is not None:
            self.fail(ev._exception)
        elif self._pending == 0:
            self.succeed([e._value for e in self._events])


class AnyOf(_Condition):
    """Triggers when the first constituent event triggers.

    Value is ``(event, value)`` for the first trigger.
    """

    def _observe_done(self, ev: Event) -> None:
        if self._state != _PENDING:
            return
        if ev._exception is not None:
            self.fail(ev._exception)
        else:
            self.succeed((ev, ev._value))


class Environment:
    """The simulation kernel: virtual clock plus event queue."""

    def __init__(self, initial_time: float = 0.0) -> None:
        self.now: float = float(initial_time)
        self._queue: list[tuple[float, int, Event]] = []
        #: Same-instant fast lane: zero-delay events (succeed/fail,
        #: ``timeout(0)``, process bootstraps) skip the heap entirely.
        #: Entries are appended with the *current* clock value and an
        #: increasing sequence number, so the deque is always sorted by
        #: ``(time, seq)`` and :meth:`step` only has to compare its head
        #: against the heap's — the documented FIFO tie-break order is
        #: preserved exactly.
        self._ready: deque[tuple[float, int, Event]] = deque()
        self._seq = 0
        #: Total events processed — useful for performance reporting.
        self.events_processed: int = 0
        self._horizon: Optional[float] = None

    # -- factory helpers ---------------------------------------------------
    def event(self) -> Event:
        """A fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that triggers ``delay`` microseconds from now."""
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Event:
        """An event that triggers at absolute time ``when``.

        The run-op replays compute a run's completion time by
        sequential addition (bit-identical to chained timeouts) and
        schedule their single completion event here.
        """
        if when < self.now - 1e-9:
            raise SimulationError(f"timeout_at({when}) is in the past (now={self.now})")
        event = Event(self)
        event._value = value
        event._state = _TRIGGERED
        self._seq += 1
        heapq.heappush(self._queue, (when, self._seq, event))
        return event

    def process(self, generator: Generator, name: str = "") -> Process:
        """Register a generator as a running process."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event: all of ``events``."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event: the first of ``events``."""
        return AnyOf(self, events)

    @property
    def idle(self) -> bool:
        """True when nothing is scheduled.

        While a running callback observes ``idle``, no other process can
        run (or observe intermediate state) before whatever that
        callback schedules next — the gate every turbo fast path checks
        before replaying multi-event sequences inline.
        """
        return not self._queue and not self._ready

    @property
    def horizon(self) -> Optional[float]:
        """The float ``until`` of the innermost :meth:`run` in progress,
        or ``None`` outside one (read-only).

        A replay that commits a multi-event sequence at once would run
        past it, so the turbo gate declines while one is set.
        """
        return self._horizon

    # -- scheduling --------------------------------------------------------
    def _push(self, event: Event, delay: float) -> None:
        self._seq += 1
        if delay == 0.0:
            self._ready.append((self.now, self._seq, event))
        else:
            heapq.heappush(self._queue, (self.now + delay, self._seq, event))

    def _pop_next(self) -> tuple[float, int, Event]:
        ready = self._ready
        queue = self._queue
        if ready:
            # Unique seq numbers mean the tuple compare never reaches
            # the Event and totally orders the two heads.
            if queue and queue[0] < ready[0]:
                return heapq.heappop(queue)
            return ready.popleft()
        if queue:
            return heapq.heappop(queue)
        raise SimulationError("step() on empty event queue")

    def _peek_time(self) -> Optional[float]:
        ready = self._ready
        queue = self._queue
        if ready:
            if queue and queue[0] < ready[0]:
                return queue[0][0]
            return ready[0][0]
        if queue:
            return queue[0][0]
        return None

    def step(self) -> None:
        """Process the single next event."""
        t, _seq, event = self._pop_next()
        if t < self.now - 1e-9:
            raise SimulationError("time went backwards")
        self.now = max(self.now, t)
        self.events_processed += 1
        event._run_callbacks()

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        * ``until=None`` — run until the event queue drains.
        * ``until=<float>`` — run until the clock reaches that time.
        * ``until=<Event>`` — run until that event is processed and
          return its value (raising its exception if it failed).
        """
        if isinstance(until, Event):
            target = until
            while not target.processed:
                if not self._queue and not self._ready:
                    raise SimulationError(
                        "deadlock: event queue drained before target event triggered"
                    )
                self.step()
            return target.value
        if until is None:
            while self._queue or self._ready:
                self.step()
            return None
        horizon = float(until)
        outer, self._horizon = self._horizon, horizon
        try:
            while True:
                t = self._peek_time()
                if t is None or t > horizon:
                    break
                self.step()
        finally:
            self._horizon = outer
        self.now = max(self.now, horizon)
        return None
