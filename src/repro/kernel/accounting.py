"""Cost accounting: a per-kernel ledger of where simulated time goes.

Every charged operation carries a component tag (``"move_pages.copy"``,
``"nt.control"``, ``"mprotect.mark"``, ...). Figure 6 of the paper — the
next-touch cost-breakdown percentages — is produced directly from this
ledger rather than from a separate model, so the breakdown always
reflects what the simulated implementation actually did.

Observers subscribe as *sinks*, objects with two entries, each called
after the totals it reports were updated:

* ``sink.charge(duration_us, tag)`` — one charge :meth:`Ledger.add`
  booked at the current simulated instant;
* ``sink.batch(starts_us, durations_us, tags)`` — every charge of one
  replayed run as three parallel sequences, in the per-charge
  reference path's order, each at the simulated instant that path
  books it (:meth:`Ledger.emit_batch`).

The wall-clock fast paths replay multi-charge sequences inline and
hand each replayed run to the sinks as one batch, so a sink sees
exactly the stream the per-charge reference path produces and never
has to switch the fast paths off (a :class:`~repro.sim.trace.Tracer`
is one such sink).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Mapping, Sequence

__all__ = ["Ledger"]


class Ledger:
    """Accumulates (tag -> total µs, count) pairs."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        #: Ordered charge observers with ``charge`` and ``batch``
        #: entries (see the module docstring). A run-op replay writes
        #: its whole run's totals back before its batch, so a sink must
        #: not read :attr:`totals`.
        self.sinks: list = []
        #: Optional ``(prefixes, sink)`` installed by the serve turbo
        #: controller (:mod:`repro.apps.servops`): while set, adds whose
        #: tag matches a prefix are routed to ``sink(tag, us)`` instead
        #: of the totals, so the controller can interleave them with its
        #: own queued charges and replay the whole stream in simulated
        #: time order at finalize. Float addition is order-sensitive;
        #: this is what keeps deferred totals bit-identical.
        self._defer: "tuple[tuple[str, ...], object] | None" = None

    def add(self, tag: str, duration_us: float) -> None:
        """Record ``duration_us`` of work under ``tag``, charged now."""
        defer = self._defer
        if defer is not None and tag.startswith(defer[0]):
            defer[1](tag, duration_us)
            return
        self.totals[tag] += duration_us
        self.counts[tag] += 1
        if self.sinks:  # the unobserved hot path pays one test
            for sink in self.sinks:
                sink.charge(duration_us, tag)

    def emit_batch(
        self, starts_us: Sequence, durations_us: Sequence, tags: Sequence[str]
    ) -> None:
        """Feed one replayed run's charges to the sinks as one batch,
        without touching the totals.

        Run-op replays that fold their totals locally call it once per
        replayed run, and only while a sink is attached: the three
        parallel sequences hold every charge in the reference path's
        order, each at its simulated instant.
        """
        for sink in self.sinks:
            sink.batch(starts_us, durations_us, tags)

    def begin_defer(self, prefixes: tuple[str, ...], sink) -> None:
        """Route adds matching ``prefixes`` to ``sink`` until
        :meth:`end_defer`. One deferral may be active at a time."""
        if self._defer is not None:
            raise RuntimeError("ledger deferral already active")
        self._defer = (tuple(prefixes), sink)

    def end_defer(self) -> None:
        """Stop routing adds; the caller replays what it captured."""
        self._defer = None

    def defers(self, tag: str) -> bool:
        """Whether an active deferral would route adds under ``tag``.

        The run-op replays fold their caller's access tag straight into
        :attr:`totals`, so they decline while this holds.
        """
        defer = self._defer
        return defer is not None and tag.startswith(defer[0])

    def reset(self) -> None:
        """Clear all entries (used between measured phases)."""
        self.totals.clear()
        self.counts.clear()

    def total(self, *prefixes: str) -> float:
        """Sum of all tags starting with **any** of ``prefixes``.

        With no prefixes, the grand total. Multi-prefix semantics
        (pinned by tests, relied on by Figure 6 and the metrics layer):

        * each *tag* is counted **at most once**, even when several
          prefixes match it (``str.startswith`` on a tuple is a single
          any-match test, not a per-prefix loop) — so overlapping
          prefixes like ``("move_pages", "move_pages.copy")`` do not
          double-count;
        * an empty-string prefix matches every tag, making
          ``total("")`` another spelling of the grand total.
        """
        if not prefixes:
            return sum(self.totals.values())
        return sum(v for k, v in self.totals.items() if k.startswith(prefixes))

    def snapshot(self) -> dict[str, float]:
        """A plain-dict copy of the totals."""
        return dict(self.totals)

    def fractions(self, groups: Mapping[str, Iterable[str]]) -> dict[str, float]:
        """Percentage breakdown over named tag groups.

        ``groups`` maps a display name to tag prefixes; tags matching no
        group fall into ``"other"``. Returns percentages summing to 100
        (when any time was recorded at all).
        """
        out: dict[str, float] = {name: 0.0 for name in groups}
        out["other"] = 0.0
        for tag, value in self.totals.items():
            for name, prefixes in groups.items():
                if any(tag.startswith(p) for p in prefixes):
                    out[name] += value
                    break
            else:
                out["other"] += value
        grand = sum(out.values())
        if grand > 0:
            out = {k: 100.0 * v / grand for k, v in out.items()}
        if out.get("other", 0.0) == 0.0:
            out.pop("other", None)
        return out
