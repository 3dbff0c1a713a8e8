"""A small metrics registry: named counters, gauges and histograms.

The registry is the structured counterpart of :mod:`repro.report` —
everything those ASCII tables print is also published here, as plain
numbers under stable dotted names, so CI and plotting scripts can
consume a run without screen-scraping. :func:`system_metrics` builds a
registry from a finished :class:`~repro.system.System` by calling the
per-subsystem publishers; :meth:`MetricsRegistry.snapshot` renders it
as a JSON-ready dict (schema: ``docs/observability.md``).

Instrument naming convention: ``<subsystem>.<metric>[.<detail>]`` —
``kernel.pages_migrated``, ``ledger.total_us.move_pages.copy``,
``link.utilization.0->1``. Names are unique per registry; asking for
an existing name with a different instrument type is an error.
"""

from __future__ import annotations

import math
import random
import zlib
from typing import Iterable, Mapping, Optional

from ..errors import ReproError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_snapshots",
    "system_metrics",
    "publish_kernel_stats",
    "publish_numastat",
    "publish_ledger",
    "publish_tracer",
    "publish_locks",
    "publish_fabric",
]


class Counter:
    """Monotonically increasing count (events, pages, µs of work)."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount

    def dump(self) -> dict:
        return {"type": self.kind, "value": self.value}


class Gauge:
    """Point-in-time value (utilization, queue depth, span)."""

    kind = "gauge"
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def dump(self) -> dict:
        return {"type": self.kind, "value": self.value}


class Histogram:
    """Streaming summary of observed values (count/sum/min/max/mean)
    plus quantiles from a bounded reservoir.

    The reservoir holds up to :data:`RESERVOIR_SIZE` observations,
    replaced by Vitter's algorithm R so it stays a uniform sample of
    the whole stream. The replacement RNG is seeded from the
    instrument *name* (``zlib.crc32``, stable across processes —
    unlike ``hash()``), so identical runs dump identical snapshots.
    """

    kind = "histogram"
    RESERVOIR_SIZE = 512
    __slots__ = ("name", "count", "sum", "min", "max", "_reservoir", "_rng")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._reservoir: list[float] = []
        self._rng = random.Random(zlib.crc32(name.encode("utf-8")))

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if len(self._reservoir) < self.RESERVOIR_SIZE:
            self._reservoir.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.RESERVOIR_SIZE:
                self._reservoir[slot] = value

    def observe_many(self, values) -> None:
        """Observe a sequence of values, bit-identically to a scalar
        :meth:`observe` loop (pinned by ``tests/test_obs_metrics.py``).

        The reservoir RNG is Python's ``random.Random`` — one
        ``randrange`` per post-fill value, in stream order — so this is
        a locals-hoisted sequential loop, not a NumPy kernel: the win
        is shaving the per-call attribute traffic off hot batch paths
        (the serve turbo flush), not vectorizing the math.
        """
        count = self.count
        total = self.sum
        lo, hi = self.min, self.max
        reservoir = self._reservoir
        size = self.RESERVOIR_SIZE
        # ``randrange(count)`` inlined as CPython's ``_randbelow``
        # (same getrandbits rejection loop, so the RNG stream — and
        # with it the reservoir — stays bit-identical to the scalar
        # path) minus the range/step argument checks per value.
        getrandbits = self._rng.getrandbits
        for value in values:
            value = float(value)
            count += 1
            total += value
            if lo is None or value < lo:
                lo = value
            if hi is None or value > hi:
                hi = value
            if len(reservoir) < size:
                reservoir.append(value)
            else:
                k = count.bit_length()
                slot = getrandbits(k)
                while slot >= count:
                    slot = getrandbits(k)
                if slot < size:
                    reservoir[slot] = value
        self.count = count
        self.sum = total
        self.min, self.max = lo, hi

    @property
    def mean(self) -> Optional[float]:
        """Arithmetic mean, or ``None`` before any observation — the
        same convention as the quantiles, so consumers never mistake
        an empty instrument for one that observed zeros."""
        return self.sum / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """The ``q``-quantile (0 <= q <= 1) of the reservoir sample,
        linearly interpolated; ``None`` when the reservoir holds fewer
        than :func:`_min_samples` observations (a p99 of three samples
        is the max wearing a costume, not a tail estimate)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        return _quantile(sorted(self._reservoir), q)

    def dump(self) -> dict:
        values = sorted(self._reservoir)
        return {
            "type": self.kind,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": _quantile(values, 0.50),
            "p95": _quantile(values, 0.95),
            "p99": _quantile(values, 0.99),
            "reservoir": values,
        }


def _min_samples(q: float) -> int:
    """Observations needed before the ``q``-quantile means anything.

    A tail quantile needs roughly ``1 / (1 - q)`` samples before it is
    distinguishable from the sample max (symmetrically ``1 / q`` for
    the low tail): 2 for p50, 20 for p95, 100 for p99. The extremes
    (q == 0 or 1) are the min/max and need only one.
    """
    tail = min(q, 1.0 - q)
    if tail <= 0.0:
        return 1
    return math.ceil(round(1.0 / tail, 9))


def _quantile(values: list, q: float) -> Optional[float]:
    """Interpolated quantile of an already-sorted sample; ``None``
    when the sample is empty or too small for ``q`` (see
    :func:`_min_samples`) — low-count reservoirs must not report fake
    tails."""
    if len(values) < _min_samples(q):
        return None
    pos = q * (len(values) - 1)
    lo = int(pos)
    frac = pos - lo
    if frac == 0.0 or lo + 1 >= len(values):
        return float(values[lo])
    return float(values[lo] + (values[lo + 1] - values[lo]) * frac)


class MetricsRegistry:
    """Get-or-create registry of named instruments."""

    def __init__(self) -> None:
        self._instruments: dict[str, object] = {}

    def _get(self, name: str, cls):
        inst = self._instruments.get(name)
        if inst is None:
            inst = self._instruments[name] = cls(name)
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} already registered as {inst.kind}, not {cls.kind}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def add(self, instrument) -> None:
        """Register an instrument built elsewhere under its own name
        (e.g. a histogram the phase profiler filled while folding
        events). Re-adding the same object is a no-op; a different
        instrument under the same name is an error."""
        existing = self._instruments.get(instrument.name)
        if existing is not None and existing is not instrument:
            raise TypeError(
                f"metric {instrument.name!r} already registered as {existing.kind}"
            )
        self._instruments[instrument.name] = instrument

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def snapshot(self) -> dict:
        """JSON-ready dump, keys sorted for deterministic output.

        Schema per entry: ``{"type": kind, ...kind-specific fields}``
        (see ``docs/observability.md`` §3).
        """
        return {name: self._instruments[name].dump() for name in sorted(self._instruments)}


def merge_snapshots(snapshots: Iterable[Mapping]) -> dict:
    """Aggregate per-system snapshots into one run-level snapshot.

    Counters and histogram counts/sums add up, gauges keep their
    maximum (peak observed), histogram min/max widen and their
    reservoirs concatenate (re-subsampled evenly when over the bound,
    quantiles recomputed). Merging entries of different kinds under
    one name raises :class:`~repro.errors.ReproError`.
    """
    out: dict[str, dict] = {}
    for snap in snapshots:
        for name, entry in snap.items():
            cur = out.get(name)
            if cur is None:
                out[name] = dict(entry)
                continue
            if cur.get("type") != entry.get("type"):
                raise ReproError(
                    f"metric {name!r}: cannot merge snapshot entries of kind "
                    f"{cur.get('type')!r} with {entry.get('type')!r} — the same "
                    "name must publish the same instrument type in every system"
                )
            if entry["type"] == "counter":
                cur["value"] += entry["value"]
            elif entry["type"] == "gauge":
                cur["value"] = max(cur["value"], entry["value"])
            else:  # histogram
                cur["count"] += entry["count"]
                cur["sum"] += entry["sum"]
                for key, pick in (("min", min), ("max", max)):
                    a, b = cur[key], entry[key]
                    cur[key] = b if a is None else (a if b is None else pick(a, b))
                cur["mean"] = cur["sum"] / cur["count"] if cur["count"] else None
                merged = sorted(
                    list(cur.get("reservoir") or []) + list(entry.get("reservoir") or [])
                )
                cap = Histogram.RESERVOIR_SIZE
                if len(merged) > cap:
                    step = (len(merged) - 1) / (cap - 1)
                    merged = [merged[round(i * step)] for i in range(cap)]
                cur["reservoir"] = merged
                cur["p50"] = _quantile(merged, 0.50)
                cur["p95"] = _quantile(merged, 0.95)
                cur["p99"] = _quantile(merged, 0.99)
    return {name: out[name] for name in sorted(out)}


# --------------------------------------------------------------- publishers --

def publish_kernel_stats(registry: MetricsRegistry, stats) -> None:
    """All :class:`~repro.obs.telemetry.KernelStats` counters.

    Dict-valued counters flatten to dotted names via
    :meth:`~repro.obs.telemetry.KernelStats.flat`
    (``kernel.migrations.move_pages``, ``kernel.run_ops.swap_in``, ...).
    """
    for name, value in stats.flat():
        registry.counter(f"kernel.{name}").inc(value)


def publish_numastat(registry: MetricsRegistry, numastat) -> None:
    """Per-node ``numastat`` counters (``numa.<row>.node<N>``)."""
    for row, values in numastat.as_table().items():
        for node, value in enumerate(values):
            registry.counter(f"numa.{row}.node{node}").inc(value)


def publish_ledger(registry: MetricsRegistry, ledger) -> None:
    """Charged time and event counts per ledger tag."""
    for tag, us in ledger.totals.items():
        registry.counter(f"ledger.total_us.{tag}").inc(us)
        registry.counter(f"ledger.events.{tag}").inc(ledger.counts[tag])
    registry.counter("ledger.grand_total_us").inc(ledger.total())


def publish_tracer(registry: MetricsRegistry, tracer) -> None:
    """Tracer health: retained samples, drops, traced span."""
    durations = tracer.durations
    registry.gauge("trace.samples").set(len(durations))
    registry.counter("trace.dropped").inc(tracer.dropped)
    lo, hi = tracer.span()
    registry.gauge("trace.span_us").set(hi - lo)
    registry.histogram("trace.sample_duration_us").observe_many(durations)


def publish_locks(registry: MetricsRegistry, system) -> None:
    """Aggregate lock contention over every kernel/process lock."""
    from ..report import collect_locks  # local import avoids a cycle

    acq = registry.counter("lock.acquisitions")
    contended = registry.counter("lock.contended")
    wait = registry.counter("lock.wait_us")
    hold = registry.counter("lock.hold_us")
    queue = registry.histogram("lock.max_queue")
    for lock in collect_locks(system):
        stats = lock.stats
        if not stats.acquisitions:
            continue
        acq.inc(stats.acquisitions)
        contended.inc(stats.contended)
        wait.inc(stats.wait_time)
        hold.inc(stats.hold_time)
        queue.observe(stats.max_queue)


def publish_fabric(registry: MetricsRegistry, fabric) -> None:
    """Mean utilization per directed interconnect link."""
    for (a, b), util in sorted(fabric.utilizations().items()):
        registry.gauge(f"link.utilization.{a}->{b}").set(util)


def system_metrics(system, tracer=None) -> MetricsRegistry:
    """One registry with every subsystem of ``system`` published."""
    registry = MetricsRegistry()
    kernel = system.kernel
    publish_kernel_stats(registry, kernel.stats)
    publish_numastat(registry, kernel.numastat)
    publish_ledger(registry, kernel.ledger)
    publish_locks(registry, system)
    publish_fabric(registry, kernel.fabric)
    if tracer is not None:
        publish_tracer(registry, tracer)
    registry.gauge("sim.time_us").set(system.now)
    registry.counter("sim.events_processed").inc(system.env.events_processed)
    return registry
