"""Simulated-time series over the always-on telemetry counters.

:class:`TimeSeriesSampler` snapshots a live kernel's
:class:`~repro.obs.telemetry.KernelStats` counters, per-node
occupancy, and (when a :class:`~repro.kernel.heat.HeatTracker` is
attached) access heat into a bounded ring buffer of points keyed by
simulated time. Sampling is **pull-based by design**: the sampler
never enqueues engine events, because a pending periodic timer would
keep ``env.idle`` false and disengage every ``turbo_ok()`` fast path
— the exact failure mode this layer exists to avoid. Callers sample
from places the simulation already wakes (policy-driver ticks, end of
run, CLI exports).

Exports:

* :meth:`TimeSeriesSampler.to_dict` — JSON-ready
  (``repro.timeseries/v1``): bounded ``points`` plus drop accounting;
* :func:`chrome_counter_events` — Chrome-trace counter tracks
  (``"ph": "C"``) so Perfetto renders occupancy / migration-rate
  graphs next to the existing phase slices;
* :func:`merge_series` — point-order concatenation of per-point
  series, used by the sharded sweep runner to merge worker output
  worker-count-invariantly.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterable, Optional

from .telemetry import stats_snapshot

__all__ = [
    "SCHEMA",
    "TimeSeriesSampler",
    "chrome_counter_events",
    "merge_series",
]

SCHEMA = "repro.timeseries/v1"

#: Default ring capacity: enough for every driver wake of the largest
#: serve run while keeping a worst-case series a few hundred KiB.
DEFAULT_CAPACITY = 4096


class TimeSeriesSampler:
    """Bounded ring-buffer sampler over one kernel's telemetry.

    ``extra_sources`` maps series names to zero-argument callables
    evaluated at each sample (e.g. a rolling p99); a source returning
    ``None`` is skipped for that point. All state read is simulated
    (counters, sim time, allocator occupancy), so series are
    bit-identical fast-vs-slow and across worker counts.
    """

    def __init__(
        self,
        kernel,
        *,
        capacity: int = DEFAULT_CAPACITY,
        extra_sources: Optional[Dict[str, Callable[[], Optional[float]]]] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.kernel = kernel
        self.capacity = int(capacity)
        self.extra_sources = dict(extra_sources or {})
        self._points: deque[dict] = deque(maxlen=self.capacity)
        self.dropped = 0  #: points evicted by the ring bound
        self._last_t: Optional[float] = None

    # ------------------------------------------------------------ sample ----
    def sample(self) -> dict:
        """Record one point at the kernel's current simulated time."""
        kernel = self.kernel
        point = {"t_us": float(kernel.env.now)}
        point.update(stats_snapshot(kernel))
        profiler = kernel.access_profiler  # a HeatTracker, if any
        if profiler is not None:
            point["heat.touches_recorded"] = int(profiler.touches_recorded)
            # O(nodes): the tracker keeps running window totals, so
            # sampling does not copy-and-sum every heat cell.
            for node, count in enumerate(profiler.window_node_totals()):
                point[f"heat.node{node}"] = int(count)
        for name, source in self.extra_sources.items():
            value = source()
            if value is not None:
                point[name] = value
        if len(self._points) == self.capacity:
            self.dropped += 1
        self._points.append(point)
        self._last_t = point["t_us"]
        return point

    def maybe_sample(self, interval_us: float) -> Optional[dict]:
        """Sample only if at least ``interval_us`` of simulated time
        passed since the last point (always samples the first call).
        Lets many wake sites share one sampler without duplicate
        points at the same instant."""
        now = float(self.kernel.env.now)
        if self._last_t is not None and now - self._last_t < interval_us:
            return None
        return self.sample()

    # ------------------------------------------------------------ export ----
    @property
    def points(self) -> list:
        return list(self._points)

    def to_dict(self) -> dict:
        """JSON-ready series (schema ``repro.timeseries/v1``)."""
        return {
            "schema": SCHEMA,
            "capacity": self.capacity,
            "dropped": self.dropped,
            "points": self.points,
        }


def chrome_counter_events(
    series: dict, *, pid: int = 0, process_name: Optional[str] = None
) -> list:
    """Render a :meth:`TimeSeriesSampler.to_dict` series as Chrome
    trace counter events (``"ph": "C"``) — one counter track per
    series name, suitable for ``write_chrome_trace`` alongside the
    tracer's phase slices."""
    events: list = []
    if process_name is not None:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": process_name},
            }
        )
    for point in series.get("points", ()):
        ts = point["t_us"]
        for name in sorted(point):
            if name == "t_us":
                continue
            events.append(
                {
                    "name": name,
                    "ph": "C",
                    "ts": ts,
                    "pid": pid,
                    "tid": 0,
                    "args": {"value": point[name]},
                }
            )
    return events


def merge_series(series: Iterable[Optional[dict]]) -> dict:
    """Concatenate per-point series **in the order given**.

    The sweep runner calls this with one series per sweep point, in
    point order — which is the same regardless of how points were
    sharded across workers, so the merged series is byte-identical
    for every worker count (the ``merge_snapshots`` property, for
    series). ``None`` entries (points without a series) are skipped.
    """
    points: list = []
    dropped = 0
    capacity = 0
    for one in series:
        if not one:
            continue
        points.extend(one.get("points", ()))
        dropped += int(one.get("dropped", 0))
        capacity = max(capacity, int(one.get("capacity", 0)))
    return {
        "schema": SCHEMA,
        "capacity": capacity,
        "dropped": dropped,
        "points": points,
    }
