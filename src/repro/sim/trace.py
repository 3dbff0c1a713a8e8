"""Event tracing: record charged operations as a timeline.

A :class:`Tracer` is a sink on the kernel's ledger (see
:mod:`repro.kernel.accounting`) and keeps a bounded record of
``(start, duration, tag)`` samples. Attaching one changes neither the
simulation nor the kernel's fast paths: every charge arrives with its
simulated instant, whether the per-charge path or a turbo replay
booked it. Besides debugging, it powers :meth:`Tracer.timeline`, an
ASCII rendering of where simulated time went — a poor man's Gantt
chart for the simulated machine.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, Optional

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


class Tracer:
    """Bounded trace recorder, attachable to a kernel."""

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._samples: Deque[TraceSample] = deque(maxlen=capacity)
        self.dropped = 0
        #: ``(ledger, sink)`` per attached kernel, for :meth:`detach`.
        self._attached: list = []

    # ------------------------------------------------------------ recording --
    def record(self, start_us: float, duration_us: float, tag: str) -> None:
        """Store one sample (oldest evicted beyond capacity).

        ``dropped`` counts exactly the evictions: it increments iff the
        deque is full at append time, so after ``k`` records with
        capacity ``c`` it reads ``max(0, k - c)``. The check compares
        against the deque's own ``maxlen`` — the authoritative bound —
        not the ``capacity`` attribute, so rebinding ``capacity`` can
        not desynchronise the count (pinned by tests).
        """
        if len(self._samples) == self._samples.maxlen:
            self.dropped += 1
        self._samples.append(TraceSample(start_us, duration_us, tag))

    def attach(self, kernel) -> None:
        """Subscribe to a kernel's ledger so every charge is recorded.

        All charged time reaches the ledger's sinks — both prospective
        charges (the sample starts at the charge) and retrospective ones
        like measured copy phases (the sample starts where the copy
        ended). The ledger hands each charge's simulated instant to the
        sink, which reads ``kernel.env.now`` only when the instant is
        "now" (``None``); the fast paths pass the instant their replay
        computed, so an attached tracer leaves them on.
        """
        env = kernel.env
        record = self.record

        def sink(at_us: Optional[float], duration_us: float, tag: str) -> None:
            record(env.now if at_us is None else at_us, duration_us, tag)

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
        return tuple(self._samples)

    def filter(self, prefix: str) -> list[TraceSample]:
        """Samples whose tag starts with ``prefix``."""
        return [s for s in self._samples if s.tag.startswith(prefix)]

    def total(self, prefix: str = "") -> float:
        """Summed duration over matching samples."""
        return sum(s.duration_us for s in self._samples if s.tag.startswith(prefix))

    def span(self) -> tuple[float, float]:
        """(first start, last end) over the trace."""
        if not self._samples:
            return (0.0, 0.0)
        return (
            min(s.start_us for s in self._samples),
            max(s.end_us for s in self._samples),
        )

    # ------------------------------------------------------------ rendering --
    def to_chrome_trace(self, pid: int = 0, process_name: Optional[str] = None) -> list[dict]:
        """The retained samples as Chrome trace-event dicts.

        Delegates to :func:`repro.obs.chrometrace.chrome_trace_events`;
        dump the list with ``json.dump`` and load it in Perfetto or
        ``chrome://tracing`` (see ``docs/observability.md`` §4).
        """
        from ..obs.chrometrace import chrome_trace_events  # deferred: no cycle

        return chrome_trace_events(self._samples, pid=pid, process_name=process_name)

    def timeline(self, width: int = 72, groups: Optional[Iterable[str]] = None) -> str:
        """ASCII activity bars per tag group over the traced span."""
        lo, hi = self.span()
        if hi <= lo:
            return "trace: empty"
        if groups is None:
            groups = sorted({s.tag.split(".")[0] for s in self._samples})
        scale = width / (hi - lo)
        lines = [f"trace span: {lo:.1f} .. {hi:.1f} us ({hi - lo:.1f} us)"]
        for group in groups:
            cells = [0.0] * width
            for s in self._samples:
                if not s.tag.startswith(group):
                    continue
                a = int((s.start_us - lo) * scale)
                b = max(a + 1, int((s.end_us - lo) * scale))
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
