"""Host-speed probe: cancel the host's own speed drift out of timings.

On a shared 2-vCPU host the same fixed work runs up to ~1.5x slower for
stretches of 5-20 s while neighbours are busy, which puts the run-to-run
spread of raw pass times above 20 %. The benchmark therefore times a
fixed probe kernel (dict-heavy Python plus small NumPy ops, the
simulator's own mix) around every stretch of measured work and scales
the stretch by ``PROBE_REF_S / probe time``: the reported seconds are
host seconds at the probe's reference speed, not raw host seconds.
A change to the simulator moves the work, not the probe, so the
normalized time moves with it. The probe runs in the measuring process,
so a change that slows the interpreter itself would slow the probe too
and be partly cancelled; the raw times in ``report.json``, and their
medians and spreads in ``results/reference.json``, show such a change.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

#: The probe's time on a quiet host (x86-64, 2 vCPUs, Python 3.11,
#: NumPy 2.4); normalized seconds are host seconds at this speed.
PROBE_REF_S = 0.0045

#: Measured work between two probes (seconds, raw).
PROBE_EVERY_S = 0.5

_ARRAY = np.arange(4096)


def _kernel() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(30000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        total += key * 3
    for _ in range(60):
        total += int((_ARRAY * 3 + 1).sum())
    return total


def probe() -> float:
    """Best-of-3 seconds of the probe kernel right now."""
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        _kernel()
        best = min(best, perf_counter() - start)
    return best


def normalize(raw_s: float, before_s: float, after_s: float) -> float:
    """``raw_s`` measured between two probes, at the reference speed."""
    return raw_s * PROBE_REF_S / ((before_s + after_s) / 2)


class Normalizer:
    """Accumulates raw item times; probes after every ``PROBE_EVERY_S``
    of them and folds the stretch into :attr:`total` normalized seconds."""

    def __init__(self) -> None:
        self.last = probe()
        self.pending = 0.0
        self.total = 0.0

    def add(self, raw_s: float) -> None:
        self.pending += raw_s
        if self.pending >= PROBE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if self.pending:
            now = probe()
            self.total += normalize(self.pending, self.last, now)
            self.last = now
            self.pending = 0.0
