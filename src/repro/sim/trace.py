"""Event tracing: record charged operations as a timeline.

A :class:`Tracer` is a sink on the kernel's ledger (see
:mod:`repro.kernel.accounting`) and keeps a bounded record of
``(start, duration, tag)`` samples, stored as three parallel columns.
Attaching one changes neither the simulation nor the kernel's fast
paths: every charge arrives with its simulated instant, one at a time
from the per-charge path and one replayed run per call from a turbo
replay (:meth:`Tracer.record_batch`). Besides debugging, it powers
:meth:`Tracer.timeline`, an ASCII rendering of where simulated time
went — a poor man's Gantt chart for the simulated machine.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import add
from typing import Deque, Iterable, Optional, Sequence

__all__ = ["TraceSample", "Tracer"]


@dataclass(frozen=True)
class TraceSample:
    """One recorded charge."""

    start_us: float
    duration_us: float
    tag: str

    @property
    def end_us(self) -> float:
        """Exclusive end time."""
        return self.start_us + self.duration_us


class _LedgerSink:
    """A tracer's sink on one kernel's ledger (the protocol of
    :mod:`repro.kernel.accounting`): a single charge is booked now, so
    it is stamped with the kernel's clock; a replayed run's batch
    carries its own instants."""

    __slots__ = ("env", "tracer")

    def __init__(self, tracer: "Tracer", env) -> None:
        self.env = env
        self.tracer = tracer

    def charge(self, duration_us: float, tag: str) -> None:
        self.tracer.record(self.env.now, duration_us, tag)

    def batch(self, starts_us: Sequence, durations_us: Sequence, tags: Sequence[str]) -> None:
        self.tracer.record_batch(starts_us, durations_us, tags)


class Tracer:
    """Bounded trace recorder, attachable to a kernel."""

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        # The retained window, oldest first, as three parallel columns
        # holding each sample's values as recorded (a float or an
        # np.float64 stays one).
        self._starts: Deque = deque(maxlen=capacity)
        self._durations: Deque = deque(maxlen=capacity)
        self._tags: Deque[str] = deque(maxlen=capacity)
        self.dropped = 0
        #: ``(ledger, sink)`` per attached kernel, for :meth:`detach`.
        self._attached: list = []

    # ------------------------------------------------------------ recording --
    def record(self, start_us: float, duration_us: float, tag: str) -> None:
        """Store one sample (oldest evicted beyond capacity).

        ``dropped`` counts exactly the evictions: it increments iff the
        columns are full at append time, so after ``k`` records with
        capacity ``c`` it reads ``max(0, k - c)``. The check compares
        against the columns' own ``maxlen`` — the authoritative bound —
        not the ``capacity`` attribute, so rebinding ``capacity`` can
        not desynchronise the count (pinned by tests).
        """
        starts = self._starts
        if len(starts) == starts.maxlen:
            self.dropped += 1
        starts.append(start_us)
        self._durations.append(duration_us)
        self._tags.append(tag)

    def record_batch(
        self, starts_us: Sequence, durations_us: Sequence, tags: Sequence[str]
    ) -> None:
        """Store a batch of samples given as three parallel sequences.

        The same as calling :meth:`record` on each ``(start, duration,
        tag)`` in order: the same retained values, types and order and
        the same ``dropped``, which grows by the evictions the batch
        causes, its own samples included when it is longer than the
        capacity.
        """
        n = len(starts_us)
        if len(durations_us) != n or len(tags) != n:
            raise ValueError("batch columns differ in length")
        starts = self._starts
        self.dropped += max(0, len(starts) + n - starts.maxlen)
        starts.extend(starts_us)
        self._durations.extend(durations_us)
        self._tags.extend(tags)

    def clear(self) -> None:
        """Forget every retained sample and reset ``dropped`` to 0.

        The tracer stays attached and then reads as a new one: after
        ``k`` more records, ``dropped`` is ``max(0, k - capacity)``.
        """
        self._starts.clear()
        self._durations.clear()
        self._tags.clear()
        self.dropped = 0

    def attach(self, kernel) -> None:
        """Subscribe to a kernel's ledger so every charge is recorded.

        All charged time reaches the ledger's sinks — both prospective
        charges (the sample starts at the charge) and retrospective ones
        like measured copy phases (the sample starts where the copy
        ended). A single charge is booked now and recorded at
        ``kernel.env.now``; the fast paths hand over each replayed run
        as one batch, every charge at the instant their replay
        computed, so an attached tracer leaves them on.
        """
        sink = _LedgerSink(self, kernel.env)
        kernel.ledger.sinks.append(sink)
        self._attached.append((kernel.ledger, sink))

    def detach(self, kernel) -> None:
        """Remove this tracer's sink from ``kernel``'s ledger.

        Other tracers on the same kernel keep recording, whatever order
        they attached in. A no-op when this tracer is not attached.
        """
        ledger = kernel.ledger
        for i, (owner, sink) in enumerate(self._attached):
            if owner is ledger:
                ledger.sinks.remove(sink)
                del self._attached[i]
                return

    # ------------------------------------------------------------ queries ----
    @property
    def samples(self) -> tuple[TraceSample, ...]:
        """All retained samples in record order."""
        return tuple(map(TraceSample, self._starts, self._durations, self._tags))

    @property
    def durations(self) -> tuple:
        """The retained samples' durations in record order, as recorded."""
        return tuple(self._durations)

    def filter(self, prefix: str) -> list[TraceSample]:
        """Samples whose tag starts with ``prefix``."""
        return [
            TraceSample(start, duration, tag)
            for start, duration, tag in zip(self._starts, self._durations, self._tags)
            if tag.startswith(prefix)
        ]

    def total(self, prefix: str = "") -> float:
        """Summed duration over matching samples."""
        return sum(d for d, tag in zip(self._durations, self._tags) if tag.startswith(prefix))

    def span(self) -> tuple[float, float]:
        """(first start, last end) over the trace."""
        if not self._starts:
            return (0.0, 0.0)
        return (min(self._starts), max(map(add, self._starts, self._durations)))

    # ------------------------------------------------------------ rendering --
    def to_chrome_trace(self, pid: int = 0, process_name: Optional[str] = None) -> list[dict]:
        """The retained samples as Chrome trace-event dicts.

        Delegates to :func:`repro.obs.chrometrace.chrome_trace_events`;
        dump the list with ``json.dump`` and load it in Perfetto or
        ``chrome://tracing`` (see ``docs/observability.md`` §4).
        """
        from ..obs.chrometrace import chrome_trace_events  # deferred: no cycle

        return chrome_trace_events(self.samples, pid=pid, process_name=process_name)

    def timeline(self, width: int = 72, groups: Optional[Iterable[str]] = None) -> str:
        """ASCII activity bars per tag group over the traced span."""
        lo, hi = self.span()
        if hi <= lo:
            return "trace: empty"
        if groups is None:
            groups = sorted({tag.split(".")[0] for tag in self._tags})
        scale = width / (hi - lo)
        lines = [f"trace span: {lo:.1f} .. {hi:.1f} us ({hi - lo:.1f} us)"]
        for group in groups:
            cells = [0.0] * width
            for start, duration, tag in zip(self._starts, self._durations, self._tags):
                if not tag.startswith(group):
                    continue
                a = int((start - lo) * scale)
                b = max(a + 1, int((start + duration - lo) * scale))
                for i in range(a, min(b, width)):
                    cells[i] += 1.0
            peak = max(cells) if any(cells) else 0.0
            if peak == 0:
                bar = " " * width
            else:
                marks = " .:#"
                bar = "".join(marks[min(3, int(3 * c / peak + (c > 0)))] for c in cells)
            lines.append(f"{group:>12} |{bar}|")
        return "\n".join(lines)
