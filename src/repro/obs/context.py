"""Observation context: trace every :class:`System` built inside it.

Experiments construct fresh systems internally (often one per measured
point), so callers cannot attach tracers by hand. ``observe()`` fixes
that from the outside::

    with observe() as obs:
        result = fig4_throughput.run([256, 1024])
    events = obs.chrome_trace()          # merged, one pid per system
    snapshot = obs.merged_metrics()      # run-level metrics snapshot

:class:`~repro.system.System.__init__` checks
:func:`current_observation` and registers itself; registration attaches
a bounded :class:`~repro.sim.trace.Tracer` to the kernel's ledger as a
sink. The tracer leaves the kernel's wall-clock fast paths on — every
turbo replay hands it each charge's simulated instant, so it records
the samples the per-page reference path would. (The serve batching
layer still declines under a sink; see
:func:`repro.apps.servops.serve_turbo_ok`.) Contexts nest — only the
innermost one observes.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from ..sim.trace import Tracer

__all__ = ["Observation", "observe", "current_observation"]

_STACK: list["Observation"] = []


class Observation:
    """Systems and tracers collected during one ``observe()`` block."""

    def __init__(self, trace_capacity: int = 200_000) -> None:
        self.trace_capacity = trace_capacity
        self.systems: list = []
        self.tracers: list[Tracer] = []

    def register(self, system) -> Tracer:
        """Attach a tracer to ``system`` and record the pair."""
        tracer = Tracer(capacity=self.trace_capacity)
        tracer.attach(system.kernel)
        self.systems.append(system)
        self.tracers.append(tracer)
        return tracer

    # ------------------------------------------------------------ exports ----
    def chrome_trace(self) -> list[dict]:
        """Merged Chrome trace events; each system becomes one pid."""
        from .chrometrace import chrome_trace_events

        events: list[dict] = []
        for pid, tracer in enumerate(self.tracers):
            events.extend(
                chrome_trace_events(
                    tracer.samples, pid=pid, process_name=f"system #{pid}"
                )
            )
        return events

    def merged_metrics(self) -> dict:
        """Run-level metrics snapshot over every observed system."""
        from .metrics import merge_snapshots, system_metrics

        return merge_snapshots(
            system_metrics(system, tracer).snapshot()
            for system, tracer in zip(self.systems, self.tracers)
        )


def current_observation() -> Optional[Observation]:
    """The innermost active observation, or ``None``."""
    return _STACK[-1] if _STACK else None


@contextmanager
def observe(trace_capacity: int = 200_000) -> Iterator[Observation]:
    """Observe every system created in the ``with`` body."""
    obs = Observation(trace_capacity=trace_capacity)
    _STACK.append(obs)
    try:
        yield obs
    finally:
        _STACK.pop()
