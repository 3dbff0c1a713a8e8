"""Automatic next-touch scanning — where the paper's idea went.

The paper proposes driving next-touch marking from the OpenMP runtime
("entering a new parallel section is usually a natural event...").
History took a second route as well: mainline Linux's *NUMA balancing*
(2012) periodically write-protects ranges of a process so that the
resulting hinting faults reveal which node touches what — which is
precisely a kernel thread applying migrate-on-next-touch on a timer.

:class:`AutoNumaScanner` prototypes that design on this simulation: a
daemon process wakes every ``scan_period_us``, walks the target
process's anonymous VMAs, and marks up to ``scan_pages`` pages
``NEXTTOUCH`` per wake. Application threads then pull their working
sets to themselves with no application- or runtime-level hooks at all.

The scanner's tests are in ``tests/test_autonuma.py``; the serve race
(``repro-experiments serve``, ``docs/serving.md``) pits it against the
paper's explicit hook: the scanner converges without source changes,
at the cost of extra hinting faults on already-local pages.
"""

from __future__ import annotations

from typing import Optional

from ..kernel.core import Kernel, SimProcess
from ..sched.thread import SimThread
from ..sim.engine import Interrupt, Process

__all__ = ["AutoNumaScanner"]


class AutoNumaScanner:
    """A kernel-daemon-like periodic next-touch marker."""

    def __init__(
        self,
        target: SimProcess,
        *,
        scan_period_us: float = 10_000.0,
        scan_pages: int = 4096,
        daemon_core: int = 0,
    ) -> None:
        self.target = target
        self.kernel: Kernel = target.kernel
        self.scan_period_us = scan_period_us
        self.scan_pages = scan_pages
        self.daemon_core = daemon_core
        #: total pages marked over the scanner's lifetime
        self.pages_marked = 0
        #: completed scan wakeups
        self.scans = 0
        self._cursor = 0  # round-robin position over the address space
        self._proc: Optional[Process] = None
        self._thread: Optional[SimThread] = None

    # ------------------------------------------------------------ lifecycle --
    def start(self) -> Process:
        """Launch the scanner daemon; returns its engine process."""
        if self._proc is not None:
            raise RuntimeError("scanner already running")
        self._thread = SimThread(self.target, self.daemon_core, name="knumad")
        self._proc = self._thread.start(self._run)
        return self._proc

    def stop(self) -> None:
        """Stop the daemon (idempotent once finished)."""
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("stop")

    # ------------------------------------------------------------ scanning ---
    def _run(self, thread: SimThread):
        kernel = self.kernel
        try:
            while True:
                yield kernel.env.timeout(self.scan_period_us)
                yield from self._scan_once(thread)
                self.scans += 1
        except Interrupt:
            return self.pages_marked

    def _scan_once(self, thread: SimThread):
        """Mark up to ``scan_pages`` pages, round-robin over VMAs."""
        kernel = self.kernel
        budget = self.scan_pages
        vmas = [v for v in self.target.addr_space.vmas if v.anonymous and not v.shared]
        if not vmas:
            return
        # Resume after the cursor, wrapping once around.
        total = sum(v.npages for v in vmas)
        self._cursor %= max(total, 1)
        position = 0
        marked_total = 0
        for vma in vmas + vmas:  # allows wrap-around in one pass
            if budget <= 0:
                break
            if position + vma.npages <= self._cursor:
                position += vma.npages
                continue
            first = max(0, self._cursor - position)
            stop = min(vma.npages, first + budget)
            marked = vma.pt.mark_next_touch(slice(first, stop))
            marked_total += marked
            budget -= stop - first
            self._cursor = (position + stop) % total
            position += vma.npages
        if marked_total:
            self.pages_marked += marked_total
            kernel.stats.nexttouch_marks += marked_total
            yield kernel.charge(
                "autonuma.scan",
                kernel.cost.madvise_base_us + kernel.cost.madvise_page_us * marked_total,
            )
            yield kernel.tlb_shootdown(self.target, thread.core, tag="autonuma.scan")
