"""A simulated in-memory KV server: the serving-side migration story.

The paper's experiments are HPC sweeps; the roadmap's north star is a
machine serving heavy multi-user traffic. This module bridges the two:
an in-memory key-value store with many concurrent client streams,
Zipfian key popularity with **hot-set drift**, and **multi-tenant
arrival/departure** — the workload shape where placement policy choice
dominates tail latency.

Building blocks:

* :class:`ZipfianKeys` — a deterministic Zipfian sampler whose rank →
  key mapping rotates over simulated time (the hot set drifts), seeded
  through :func:`repro.sim.rng.make_rng`;
* :class:`TenantSpec` / :class:`KVServer` — one tenant is a process
  with a page-per-key region loaded (first-touched) on its *home*
  node while its clients run elsewhere; client streams issue
  read/write requests end-to-end through the sim engine, each latency
  recorded in a :class:`~repro.obs.metrics.Histogram` and emitted as
  a ``serve:request`` tracepoint;
* :class:`SloGate` — a hysteretic monitor over the rolling p99: it
  reports *breach* exactly when the window's p99 first exceeds the
  SLO, *recover* only once p99 falls below ``slo * recover_fraction``,
  and nothing in between — gated policy drivers act only while a
  tenant is at risk;
* the **policy drivers** racing the kernel's placement mechanisms:
  ``static`` (first-touch only), ``move_pages`` (synchronous batched
  migration of the hot set), ``nexttouch`` (kernel
  migrate-on-next-touch marking), ``autonuma``
  (:class:`~repro.ext.autonuma.AutoNumaScanner`) and ``replicate``
  (:class:`~repro.ext.replication.ReplicationManager` read replicas
  with mprotect-fenced writes). Heat comes from the kernel's
  :class:`~repro.kernel.heat.HeatTracker` access-profiler hook.

``repro.experiments.fig_serve`` races the policies and renders the
throughput/latency table; ``docs/serving.md`` documents the model.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..errors import SyscallError
from ..kernel.heat import HeatTracker
from ..kernel.syscalls import Madvise
from ..kernel.vma import PROT_READ, PROT_RW
from ..obs import tracepoints
from ..obs.metrics import Histogram, _min_samples, _quantile
from ..obs.timeseries import TimeSeriesSampler
from ..sched.scheduler import Placement
from ..sim.rng import make_rng
from ..util.units import PAGE_SIZE

__all__ = [
    "REQUEST_BYTES",
    "DEFAULT_SLO_US",
    "POLICIES",
    "ZipfianKeys",
    "TenantSpec",
    "default_tenants",
    "SloGate",
    "PolicyDriver",
    "MovePagesPolicy",
    "NextTouchPolicy",
    "AutoNumaPolicy",
    "ReplicationPolicy",
    "make_policy",
    "KVServer",
    "ServeStats",
    "smoke_workload",
]

#: Bytes streamed per *page* of a value — full pages, as a KV cache
#: serving page-aligned values does. Every policy's access path
#: charges the same per-page payload so the race compares placement,
#: not request size.
REQUEST_BYTES = float(PAGE_SIZE)

#: Default request-latency SLO. Calibrated between the all-local
#: (~8.55 us) and the one-hop-remote (~9.86 us) request latency of the
#: default mix on the paper's 4-node Opteron (see ``docs/serving.md``),
#: so the gate has something real to defend: converged placement meets
#: it, any remote placement breaches it.
DEFAULT_SLO_US = 9.4


# ------------------------------------------------------------------ workload --

class ZipfianKeys:
    """Zipfian key popularity with hot-set drift.

    Rank ``r`` (0-based) is drawn with probability ∝ ``1/(r+1)**theta``;
    the rank → key mapping rotates by ``drift_step`` keys every
    ``drift_period_us`` of simulated time, so the hot set moves through
    the keyspace while the *shape* of the skew stays fixed. Sampling is
    bit-stable for a given ``(seed, streams)`` pair.
    """

    def __init__(
        self,
        nkeys: int,
        theta: float = 0.9,
        *,
        seed: Optional[int] = None,
        streams: Sequence = ("zipf",),
        drift_step: int = 0,
        drift_period_us: float = 0.0,
    ) -> None:
        if nkeys <= 0:
            raise ValueError(f"nkeys must be positive, got {nkeys}")
        if theta < 0:
            raise ValueError(f"theta must be non-negative, got {theta}")
        self.nkeys = nkeys
        self.theta = theta
        self.drift_step = int(drift_step)
        self.drift_period_us = float(drift_period_us)
        weights = 1.0 / np.arange(1, nkeys + 1, dtype=np.float64) ** theta
        self._cdf = np.cumsum(weights / weights.sum())
        self._rng = make_rng(seed, *streams)

    def offset(self, now_us: float) -> int:
        """The rank → key rotation at simulated time ``now_us``."""
        if self.drift_step <= 0 or self.drift_period_us <= 0:
            return 0
        return int(now_us // self.drift_period_us) * self.drift_step % self.nkeys

    def sample(self, now_us: float = 0.0) -> int:
        """Draw one key index under the rotation at ``now_us``."""
        rank = int(np.searchsorted(self._cdf, self._rng.random(), side="right"))
        rank = min(rank, self.nkeys - 1)
        return (rank + self.offset(now_us)) % self.nkeys

    def uniform(self) -> float:
        """One uniform draw from the same stream (read/write coin)."""
        return float(self._rng.random())

    def pairs(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """``n`` (rank, coin) pairs in one vectorized draw.

        Consumes the underlying stream exactly as ``n`` interleaved
        :meth:`sample` / :meth:`uniform` call pairs would (one uniform
        each, in that order), and ranks equal the scalar searchsorted
        result bit-for-bit — pinned by ``tests/test_serve.py``. Ranks
        are returned *unrotated*: the caller applies
        ``(rank + offset(t)) % nkeys`` at each request's own simulated
        time, so drift boundaries inside a batch behave exactly as in
        the scalar path.
        """
        draws = self._rng.random(2 * int(n))
        ranks = np.searchsorted(self._cdf, draws[0::2], side="right")
        np.minimum(ranks, self.nkeys - 1, out=ranks)
        return ranks, draws[1::2]


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a keyspace, its clients, and their behavior."""

    name: str
    keys: int = 128
    value_pages: int = 4  #: contiguous pages per value (16 KiB objects)
    clients: int = 2
    requests: int = 800  #: per client stream
    arrival_us: float = 0.0
    home_node: int = 0  #: where the loader first-touches the data
    client_node: Optional[int] = None  #: None spreads clients machine-wide
    read_fraction: float = 0.95
    theta: float = 0.9
    drift_step: int = 16
    drift_period_us: float = 2000.0
    think_us: float = 2.0  #: per-request service compute


def default_tenants(
    count: int,
    num_nodes: int,
    *,
    keys: int = 128,
    clients: int = 2,
    requests: int = 800,
    arrival_gap_us: float = 200.0,
    theta: float = 0.9,
) -> list[TenantSpec]:
    """The standard churn mix: tenant ``i`` loads on node ``i % N`` but
    serves from node ``(i + 1) % N`` — every byte starts remote, which
    is exactly the situation the placement policies must repair —
    with arrivals staggered so tenants overlap and depart mid-run."""
    return [
        TenantSpec(
            name=f"t{i}",
            keys=keys,
            clients=clients,
            requests=requests,
            arrival_us=i * arrival_gap_us,
            home_node=i % num_nodes,
            client_node=(i + 1) % num_nodes,
            theta=theta,
        )
        for i in range(count)
    ]


# ----------------------------------------------------------------- SLO gate --

class SloGate:
    """Hysteretic SLO monitor over a rolling latency window.

    The gate watches the rolling p99 of the last ``window`` request
    latencies (``None`` — and therefore silent — until the window
    holds enough samples for a real p99; see
    :func:`repro.obs.metrics._quantile`). It transitions to *at risk*
    exactly when p99 first exceeds ``slo_us``, and back only once p99
    drops to ``slo_us * recover_fraction`` — the hysteresis band
    ``(recover_fraction * slo, slo]`` produces no transitions at all,
    so a gated driver never oscillates on a borderline tenant.
    """

    def __init__(
        self,
        slo_us: float,
        *,
        window: int = 256,
        recover_fraction: float = 0.95,
    ) -> None:
        if slo_us <= 0:
            raise ValueError(f"slo_us must be positive, got {slo_us}")
        if not 0.0 < recover_fraction <= 1.0:
            raise ValueError(f"recover_fraction outside (0, 1]: {recover_fraction}")
        self.slo_us = float(slo_us)
        self.recover_fraction = float(recover_fraction)
        self._window: deque[float] = deque(maxlen=window)
        #: sorted mirror of ``_window``, kept in lockstep by both feed
        #: paths (one eviction + one insertion per sample)
        self._svals: list[float] = []
        self.at_risk = False
        self.breaches = 0
        self.recoveries = 0
        #: (t_us, event, p99_us) transition log, in order
        self.transitions: list[dict] = []

    def rolling_p99(self) -> Optional[float]:
        """The window's p99, or ``None`` while the window is too small."""
        return _quantile(self._svals, 0.99)

    def observe(self, latency_us: float, now_us: float = 0.0) -> Optional[str]:
        """Feed one latency; returns ``"breach"``/``"recover"`` on a
        transition, ``None`` otherwise (including inside the band)."""
        latency_us = float(latency_us)
        window = self._window
        svals = self._svals
        if len(window) == window.maxlen:
            del svals[bisect_left(svals, window[0])]
        window.append(latency_us)
        insort(svals, latency_us)
        p99 = self.rolling_p99()
        if p99 is None:
            return None
        if not self.at_risk and p99 > self.slo_us:
            self.at_risk = True
            self.breaches += 1
            self.transitions.append({"t_us": now_us, "event": "breach", "p99_us": p99})
            return "breach"
        if self.at_risk and p99 <= self.slo_us * self.recover_fraction:
            self.at_risk = False
            self.recoveries += 1
            self.transitions.append({"t_us": now_us, "event": "recover", "p99_us": p99})
            return "recover"
        return None

    def observe_batch(self, latencies: Sequence[float], times: Sequence[float]) -> None:
        """Feed many latencies with their completion times.

        Bit-identical to calling :meth:`observe` once per pair, with
        the p99 arithmetic inlined — this is where the serve turbo path
        (:mod:`repro.apps.servops`) spends its gate budget. Transitions
        land in :attr:`transitions` exactly as the scalar path records
        them; the return value (unneeded in batch: tracepoints are
        inactive whenever batches exist) is dropped.
        """
        window = self._window
        maxlen = window.maxlen
        svals = self._svals
        slo = self.slo_us
        recover_at = self.slo_us * self.recover_fraction
        transitions = self.transitions
        # ``_quantile(svals, 0.99)`` inlined against the sorted mirror:
        # same index arithmetic, minus a function call and the
        # ``_min_samples`` ceil/round per sample.
        need = _min_samples(0.99)
        for latency, now in zip(latencies, times):
            latency = float(latency)
            if len(window) == maxlen:
                evicted = window[0]
                del svals[bisect_left(svals, evicted)]
            window.append(latency)
            insort(svals, latency)
            m = len(svals)
            if m < need:
                continue
            pos = 0.99 * (m - 1)
            lo = int(pos)
            frac = pos - lo
            if frac == 0.0 or lo + 1 >= m:
                p99 = float(svals[lo])
            else:
                p99 = float(svals[lo] + (svals[lo + 1] - svals[lo]) * frac)
            if not self.at_risk and p99 > slo:
                self.at_risk = True
                self.breaches += 1
                transitions.append({"t_us": now, "event": "breach", "p99_us": p99})
            elif self.at_risk and p99 <= recover_at:
                self.at_risk = False
                self.recoveries += 1
                transitions.append({"t_us": now, "event": "recover", "p99_us": p99})

    def summary(self) -> dict:
        """Manifest-ready gate state."""
        return {
            "slo_us": self.slo_us,
            "recover_fraction": self.recover_fraction,
            "breaches": self.breaches,
            "recoveries": self.recoveries,
            "at_risk": self.at_risk,
            "rolling_p99_us": self.rolling_p99(),
        }


# ------------------------------------------------------------------ tenants --

class _Tenant:
    """Runtime state of one tenant (spec + region + stats)."""

    def __init__(self, spec: TenantSpec, gate: SloGate) -> None:
        self.spec = spec
        self.gate = gate
        self.process = None
        self.addr = 0
        self.value_bytes = spec.value_pages * PAGE_SIZE
        self.nbytes = spec.keys * self.value_bytes
        self.hist = Histogram(f"serve.latency_us.{spec.name}")
        self.requests_done = 0
        self.writes = 0
        self.start_us: Optional[float] = None
        self.end_us: Optional[float] = None
        self.client_nodes: set[int] = set()
        self.active = False  #: region mapped, clients running
        self.departed = False
        #: the policy driver's next wake instant, ``None`` while the
        #: driver is mid-tick — the serve turbo lease horizon never
        #: crosses it (see :mod:`repro.apps.servops`)
        self.next_wake: Optional[float] = None

    def holds(self, addr: int) -> bool:
        return self.active and self.addr <= addr < self.addr + self.nbytes


# ------------------------------------------------------------------ policies --

class PolicyDriver:
    """Base driver — also the ``static`` baseline (first touch only).

    Subclasses override :meth:`tick` (the periodic daemon body, run
    inside the tenant's process) and optionally :meth:`prepare`,
    :meth:`access` and :meth:`depart`. ``tick`` receives ``act=False``
    while an SLO gate holds the tenant healthy; ungated servers always
    pass ``act=True``.
    """

    name = "static"
    needs_heat = False
    #: per-tick act budget (pages). Policies whose act is synchronous
    #: and expensive (move_pages, replicate) default to small bites so
    #: one tick cannot outlast a drift period; cheap marking policies
    #: take bigger ones.
    DEFAULT_HOT_PAGES = 256

    def __init__(self, *, period_us: float = 150.0, hot_pages: Optional[int] = None) -> None:
        self.period_us = float(period_us)
        self.hot_pages = int(hot_pages if hot_pages is not None else self.DEFAULT_HOT_PAGES)
        self.actions = 0  #: ticks that actually moved/marked/replicated
        self.pages_touched = 0  #: pages acted on over the run
        self.server: Optional["KVServer"] = None

    def bind(self, server: "KVServer") -> None:
        self.server = server

    def prepare(self, thread, tenant: _Tenant):
        """Post-load setup, run by the loader thread (generator)."""
        return
        yield  # pragma: no cover - makes this a generator

    def access(self, thread, tenant: _Tenant, addr: int, write: bool):
        """One request's data access: stream the whole value
        (``value_pages`` contiguous pages starting at ``addr``)."""
        yield from thread.touch(
            addr,
            tenant.value_bytes,
            write=write,
            bytes_per_page=REQUEST_BYTES,
            tag="serve.access",
        )

    def tick(self, thread, tenant: _Tenant, act: bool):
        """One periodic driver wake (generator)."""
        return
        yield  # pragma: no cover - makes this a generator

    def depart(self, thread, tenant: _Tenant):
        """Teardown before the tenant's region unmaps (generator)."""
        return
        yield  # pragma: no cover - makes this a generator

    # --------------------------------------------------------- serve turbo --
    def turbo_safe(self, tenant: _Tenant) -> bool:
        """May the serve turbo commit this tenant's requests right now?

        Base policies mutate placement only inside :meth:`tick`, which
        the lease horizon never crosses, so they are always safe.
        Policies with asynchronous mutators, or with an access path the
        eligibility table does not model, override this.
        """
        return True

    # ------------------------------------------------------------- helpers --
    def _hot_misplaced(self, tenant: _Tenant) -> list[tuple[int, int]]:
        """(page_addr, dominant_node) for the hottest misplaced pages.

        The ``hot_pages`` budget bounds the *misplaced* pages acted on
        per tick, not the pages inspected — once the top of the heat
        ranking is well-placed, the driver must still find the warm
        tail behind it instead of going idle."""
        server = self.server
        window = server.heat_view()
        tracker = server.heat
        pid = tenant.process.pid
        out: list[tuple[int, int]] = []
        for addr in tracker.hot_pages(
            window, None, pid=pid, lo=tenant.addr, hi=tenant.addr + tenant.nbytes
        ):
            dest = tracker.dominant_node(window, pid, addr)
            if dest is None:
                continue
            resolved = tenant.process.addr_space.resolve(addr)
            if resolved is None:
                continue
            vma, idx = resolved
            if int(vma.pt.node[idx]) != dest:
                out.append((addr, dest))
                if len(out) >= self.hot_pages:
                    break
        return out

    def _emit(self, kernel, tenant: _Tenant, action: str, pages: int) -> None:
        if tracepoints.active(kernel):
            tracepoints.emit(
                "serve:policy",
                kernel,
                tenant=tenant.spec.name,
                policy=self.name,
                action=action,
                pages=int(pages),
            )


class MovePagesPolicy(PolicyDriver):
    """Synchronous ``move_pages`` of the hot set to its dominant node."""

    name = "move_pages"
    needs_heat = True
    DEFAULT_HOT_PAGES = 128

    def tick(self, thread, tenant: _Tenant, act: bool):
        if not act:
            return
        moves = self._hot_misplaced(tenant)
        if not moves:
            return
        pages = np.asarray([a for a, _ in moves], dtype=np.int64)
        dests = np.asarray([d for _, d in moves], dtype=np.int64)
        yield from thread.move_pages(pages, dests)
        self.actions += 1
        self.pages_touched += int(pages.size)
        self._emit(thread.kernel, tenant, "move_pages", pages.size)


class NextTouchPolicy(PolicyDriver):
    """Kernel next-touch marking of the misplaced hot set.

    Marking is cheap and lazy: the *clients* then pull the pages to
    themselves on their next access, off the driver's critical path.
    """

    name = "nexttouch"
    needs_heat = True

    def tick(self, thread, tenant: _Tenant, act: bool):
        if not act:
            return
        addrs = sorted(addr for addr, _ in self._hot_misplaced(tenant))
        if not addrs:
            return
        marked = 0
        run_start, run_len = addrs[0], 1
        runs: list[tuple[int, int]] = []
        for addr in addrs[1:]:
            if addr == run_start + run_len * PAGE_SIZE:
                run_len += 1
            else:
                runs.append((run_start, run_len))
                run_start, run_len = addr, 1
        runs.append((run_start, run_len))
        for start, npages in runs:
            yield from thread.madvise(start, npages * PAGE_SIZE, Madvise.NEXTTOUCH)
            marked += npages
        self.actions += 1
        self.pages_touched += marked
        self._emit(thread.kernel, tenant, "madvise_nexttouch", marked)


class AutoNumaPolicy(PolicyDriver):
    """One :class:`~repro.ext.autonuma.AutoNumaScanner` per tenant.

    Ungated, the scanner runs for the tenant's whole lifetime; under an
    SLO gate the driver starts it on breach and stops it on recovery —
    hinting faults are only paid while the tail is actually at risk.
    """

    name = "autonuma"
    needs_heat = False

    def __init__(self, *, period_us: float = 150.0, hot_pages: Optional[int] = None,
                 scan_period_us: float = 400.0, scan_pages: int = 128) -> None:
        super().__init__(period_us=period_us, hot_pages=hot_pages)
        self.scan_period_us = float(scan_period_us)
        self.scan_pages = int(scan_pages)
        self._scanners: dict[str, object] = {}

    def tick(self, thread, tenant: _Tenant, act: bool):
        from ..ext.autonuma import AutoNumaScanner

        scanner = self._scanners.get(tenant.spec.name)
        if act and scanner is None:
            scanner = AutoNumaScanner(
                tenant.process,
                scan_period_us=self.scan_period_us,
                scan_pages=self.scan_pages,
                daemon_core=thread.core,
            )
            scanner.start()
            self._scanners[tenant.spec.name] = scanner
            self.actions += 1
            self._emit(thread.kernel, tenant, "scan_start", 0)
        elif not act and scanner is not None:
            self.pages_touched += scanner.pages_marked
            scanner.stop()
            del self._scanners[tenant.spec.name]
            self._emit(thread.kernel, tenant, "scan_stop", scanner.pages_marked)
        return
        yield  # pragma: no cover - makes this a generator

    def depart(self, thread, tenant: _Tenant):
        scanner = self._scanners.pop(tenant.spec.name, None)
        if scanner is not None:
            self.pages_touched += scanner.pages_marked
            scanner.stop()
        return
        yield  # pragma: no cover - makes this a generator

    def turbo_safe(self, tenant: _Tenant) -> bool:
        # An active scanner marks PTEs from its own daemon thread at
        # instants the lease horizon cannot see — requests must run
        # per-request while it is attached.
        return tenant.spec.name not in self._scanners


class ReplicationPolicy(PolicyDriver):
    """Read replicas of the hot set on every client node.

    The region turns read-only after load (replicas may only exist
    while writes are fenced); reads hit the nearest replica, writes pay
    the coherence protocol — collapse replicas, ``mprotect`` the page
    writable, store, seal it read-only again.
    """

    name = "replicate"
    needs_heat = True
    DEFAULT_HOT_PAGES = 64

    def __init__(self, *, period_us: float = 150.0, hot_pages: Optional[int] = None) -> None:
        super().__init__(period_us=period_us, hot_pages=hot_pages)
        self._managers: dict[str, object] = {}

    def prepare(self, thread, tenant: _Tenant):
        from ..ext.replication import ReplicationManager

        self._managers[tenant.spec.name] = ReplicationManager(tenant.process)
        yield from thread.mprotect(tenant.addr, tenant.nbytes, PROT_READ)

    def access(self, thread, tenant: _Tenant, addr: int, write: bool):
        kernel = thread.kernel
        manager = self._managers[tenant.spec.name]
        nbytes = tenant.value_bytes
        if write:
            yield from manager.collapse(thread, addr, nbytes)
            yield from thread.mprotect(addr, nbytes, PROT_RW, tag="serve.coherence")
            yield from thread.touch(
                addr, nbytes, write=True,
                bytes_per_page=REQUEST_BYTES, tag="serve.access",
            )
            yield from thread.mprotect(addr, nbytes, PROT_READ, tag="serve.coherence")
            return
        resolved = tenant.process.addr_space.resolve(addr)
        if resolved is not None and resolved[0].prot == PROT_READ:
            vma, idx = resolved
            # Replica-aware read at the same payload size every other
            # policy charges.
            idxs = np.arange(idx, idx + tenant.spec.value_pages, dtype=np.int64)
            locality = manager.effective_locality(vma, idxs, thread.node)
            total = 0.0
            for node, pages in locality.items():
                factor = kernel.machine.numa_factor(thread.node, node)
                total += pages * REQUEST_BYTES * factor / kernel.cost.local_stream_bw
            if kernel.access_profiler is not None:
                kernel.access_profiler.record(
                    thread.process.pid, vma, idx,
                    tenant.spec.value_pages, thread.node,
                )
            if total > 0:
                yield kernel.charge("serve.access", total)
            return
        # Mid-write window on this value: fall back to a plain read.
        yield from thread.touch(
            addr, nbytes, write=False,
            bytes_per_page=REQUEST_BYTES, tag="serve.access",
        )

    def tick(self, thread, tenant: _Tenant, act: bool):
        if not act or not tenant.client_nodes:
            return
        manager = self._managers[tenant.spec.name]
        window = self.server.heat_view()
        created = 0
        for addr in self.server.heat.hot_pages(
            window, None, pid=tenant.process.pid,
            lo=tenant.addr, hi=tenant.addr + tenant.nbytes,
        ):
            if created >= self.hot_pages:
                break
            try:
                created += yield from manager.replicate(
                    thread, addr, PAGE_SIZE, nodes=sorted(tenant.client_nodes)
                )
            except SyscallError:
                continue  # page mid-write (RW) or unpopulated: skip
        if created:
            self.actions += 1
            self.pages_touched += created
            self._emit(thread.kernel, tenant, "replicate", created)

    def depart(self, thread, tenant: _Tenant):
        # Replica frames are manager-owned: collapse before unmap so
        # the frame-accounting invariants stay exact.
        manager = self._managers.pop(tenant.spec.name, None)
        if manager is not None:
            yield from manager.collapse(thread, tenant.addr, tenant.nbytes)

    def turbo_safe(self, tenant: _Tenant) -> bool:
        # Reads price through the replica ledger, which the serve
        # turbo's eligibility table does not model, and writes run
        # real kernel ops (collapse, mprotect, shootdown): every
        # request runs per-request.
        return False


#: The raced policies, in the order the experiments report them.
POLICIES: tuple[str, ...] = (
    "static", "move_pages", "nexttouch", "autonuma", "replicate",
)

_POLICY_CLASSES = {
    cls.name: cls
    for cls in (PolicyDriver, MovePagesPolicy, NextTouchPolicy,
                AutoNumaPolicy, ReplicationPolicy)
}


def make_policy(name: str, **kwargs) -> PolicyDriver:
    """Instantiate a policy driver by its registry name."""
    try:
        cls = _POLICY_CLASSES[name]
    except KeyError:
        raise ValueError(f"unknown policy {name!r}; choose from {sorted(_POLICY_CLASSES)}")
    return cls(**kwargs)


# ------------------------------------------------------------------- server --

@dataclass
class ServeStats:
    """One policy run's headline numbers (see ``docs/serving.md``)."""

    policy: str
    requests: int
    elapsed_us: float
    throughput_rps: float  #: requests per simulated second
    p50_us: Optional[float]
    p95_us: Optional[float]
    p99_us: Optional[float]
    mean_us: Optional[float]
    pages_migrated: int
    policy_actions: int
    policy_pages: int
    slo: dict = field(default_factory=dict)
    tenants: dict = field(default_factory=dict)
    #: simulated-time telemetry series (``repro.timeseries/v1``):
    #: counters, per-node occupancy, rolling p99 and migration rate,
    #: sampled at policy-driver wakes.
    series: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "requests": self.requests,
            "elapsed_us": self.elapsed_us,
            "throughput_rps": self.throughput_rps,
            "latency_us": {
                "mean": self.mean_us,
                "p50": self.p50_us,
                "p95": self.p95_us,
                "p99": self.p99_us,
            },
            "pages_migrated": self.pages_migrated,
            "policy_actions": self.policy_actions,
            "policy_pages": self.policy_pages,
            "slo": self.slo,
            "tenants": self.tenants,
            "series": self.series,
        }


class KVServer:
    """Run one tenant mix under one placement policy on one system."""

    def __init__(
        self,
        system,
        specs: Sequence[TenantSpec],
        policy: Optional[PolicyDriver] = None,
        *,
        slo_us: float = DEFAULT_SLO_US,
        gated: bool = True,
        seed: Optional[int] = None,
    ) -> None:
        if not specs:
            raise ValueError("KVServer needs at least one tenant")
        self.system = system
        self.policy = policy if policy is not None else PolicyDriver()
        self.policy.bind(self)
        self.slo_us = float(slo_us)
        self.gated = bool(gated)
        self.seed = seed
        self.tenants = [_Tenant(s, SloGate(slo_us)) for s in specs]
        #: every request latency, across tenants (the race's headline)
        self.hist = Histogram(f"serve.latency_us.all.{self.policy.name}")
        self.heat: Optional[HeatTracker] = None
        if self.policy.needs_heat:
            self.heat = HeatTracker(system.kernel.machine.num_nodes)
            system.kernel.access_profiler = self.heat
        self._acc: dict[int, np.ndarray] = {}
        #: the batching controller (``repro.apps.servops``), installed
        #: by :meth:`run` when ``serve_turbo_ok`` holds at start
        self._turbo = None
        # Always-on telemetry series, sampled from the policy drivers'
        # existing wakes (pull-based: a dedicated sampling timer would
        # keep ``env.idle`` false and disengage the turbo paths).
        self._rate_ref: tuple[float, int] = (0.0, 0)
        self.sampler = TimeSeriesSampler(
            system.kernel,
            extra_sources={
                "serve.p99_us": lambda: self.hist.quantile(0.99),
                "serve.migration_rate_per_s": self._migration_rate,
            },
        )

    def _migration_rate(self) -> Optional[float]:
        """Pages migrated per simulated second since the last sample."""
        kernel = self.system.kernel
        now = float(kernel.env.now)
        pages = kernel.stats.pages_migrated
        t0, p0 = self._rate_ref
        self._rate_ref = (now, pages)
        if now <= t0:
            return None
        return (pages - p0) * 1e6 / (now - t0)

    # --------------------------------------------------------------- heat ----
    def heat_view(self) -> dict[int, np.ndarray]:
        """The decayed heat accumulator, refreshed from the kernel.

        Each call folds the tracker's window since the last call into
        an exponentially decayed per-page accumulator (halving older
        traffic), so all tenants' drivers share one coherent, recent
        view no matter how their wakes interleave.
        """
        fresh = self.heat.snapshot(clear=True)
        if fresh:
            for cell in self._acc.values():
                cell //= 2
            for key, counts in fresh.items():
                cell = self._acc.get(key)
                if cell is None:
                    self._acc[key] = counts.copy()
                else:
                    cell += counts
            self._acc = {k: c for k, c in self._acc.items() if c.any()}
        return self._acc

    # ---------------------------------------------------------------- run ----
    def run(self) -> ServeStats:
        """Drive every tenant to completion; returns the run's stats."""
        from .servops import ServeTurbo, serve_turbo_ok

        system = self.system
        if serve_turbo_ok(system.kernel):
            self._turbo = ServeTurbo(self)
        loaders = [
            system.spawn(
                system.create_process(f"kv.{tenant.spec.name}"),
                core=system.scheduler.place(
                    1, Placement.SINGLE_NODE, node=tenant.spec.home_node
                )[0],
                body=lambda t, ten=tenant: self._tenant_body(ten, t),
                name=f"kv.{tenant.spec.name}.loader",
            )
            for tenant in self.tenants
        ]
        for loader in loaders:
            system.run_to(loader.join())
        return self._stats()

    # ------------------------------------------------------------- threads ---
    def _tenant_body(self, tenant: _Tenant, t):
        """Loader thread: arrival, load, serve, departure.

        It publishes the policy driver's first wake
        (``tenant.next_wake``) before any client runs, because every
        serve-turbo lease is bounded by the tenant's next wake.
        """
        spec = tenant.spec
        system = self.system
        kernel = t.kernel
        tenant.process = t.process
        if spec.arrival_us > 0:
            yield kernel.env.timeout(spec.arrival_us)
        tenant.addr = yield from t.mmap(tenant.nbytes, PROT_RW, name=f"kv.{spec.name}")
        # Initial load: first-touch the whole keyspace on the home node
        # (the node that accepted the bulk load), full pages streamed.
        yield from t.touch(tenant.addr, tenant.nbytes, write=True, tag="serve.load")
        yield from self.policy.prepare(t, tenant)
        tenant.active = True
        tenant.start_us = system.now
        placement = (
            Placement.SINGLE_NODE if spec.client_node is not None else Placement.SPREAD
        )
        clients = system.spawn_team(
            t.process,
            spec.clients,
            lambda rank, ct, ten=tenant: self._client_body(ten, rank, ct),
            placement,
            node=spec.client_node,
        )
        tenant.client_nodes = {c.node for c in clients}
        driver = system.spawn(
            t.process,
            core=clients[0].core,
            body=lambda dt, ten=tenant: self._driver_body(ten, dt),
            name=f"kv.{spec.name}.policyd",
        )
        # The driver body starts zero-delay at this same instant, so its
        # first wake deadline is exactly ``now + period`` — register it
        # before any client runs (clients only start at the join yield).
        tenant.next_wake = kernel.env.now + self.policy.period_us
        for client in clients:
            yield client.join()
        tenant.departed = True  # driver exits at its next wake
        yield driver.join()
        yield from self.policy.depart(t, tenant)
        tenant.active = False
        tenant.end_us = system.now
        yield from t.munmap(tenant.addr, tenant.nbytes)

    def _client_body(self, tenant: _Tenant, rank: int, t):
        """One client stream: sample, access, think, record.

        With the serve turbo installed the stream alternates between
        *leases* (a run of requests committed ahead of simulated time,
        parked on one ``timeout_at``) and single per-request
        iterations for whatever the lease refused — which consume the
        exact pre-drawn Zipfian pair the lease stopped at, so the
        stream's key/coin sequence matches the scalar world's. While
        the policy declares the tenant unsafe (an attached autonuma
        scanner; ``replicate`` always) every request takes the
        per-request iteration.
        """
        spec = tenant.spec
        kernel = t.kernel
        env = kernel.env
        zipf = ZipfianKeys(
            spec.keys,
            spec.theta,
            seed=self.seed,
            streams=("serve", spec.name, rank),
            drift_step=spec.drift_step,
            drift_period_us=spec.drift_period_us,
        )
        turbo = self._turbo
        if turbo is None:
            for _ in range(spec.requests):
                key = zipf.sample(env.now)
                write = zipf.uniform() >= spec.read_fraction
                kernel.stats.serve_slow_requests += 1
                yield from self._slow_request(tenant, rank, t, key, write)
            return
        state = turbo.register(tenant, t.node, zipf)
        while state.done < spec.requests:
            if turbo.lease(state):
                yield env.timeout_at(state.park)
                continue
            # Queued effects up to now must land before this request's
            # live ones (reservoir and gate order are time order).
            turbo.flush(env.now)
            rank_draw, coin = turbo.take_pair(state)
            key = (rank_draw + zipf.offset(env.now)) % spec.keys
            write = coin >= spec.read_fraction
            kernel.stats.serve_slow_requests += 1
            yield from self._slow_request(tenant, rank, t, key, write)

    def _slow_request(self, tenant: _Tenant, rank: int, t, key: int, write: bool):
        """One request on the per-request path (the turbo's reference)."""
        spec = tenant.spec
        kernel = t.kernel
        env = kernel.env
        addr = tenant.addr + key * tenant.value_bytes
        start = env.now
        yield from self.policy.access(t, tenant, addr, write)
        if spec.think_us > 0:
            yield t.compute(spec.think_us, tag="serve.think")
        if self._turbo is not None:
            # Sibling commits that completed while this request ran
            # observe before it does, as they would have live.
            self._turbo.flush(env.now)
        latency = env.now - start
        tenant.requests_done += 1
        tenant.writes += int(write)
        tenant.hist.observe(latency)
        self.hist.observe(latency)
        transition = tenant.gate.observe(latency, env.now)
        if transition is not None and tracepoints.active(kernel):
            tracepoints.emit(
                "serve:policy",
                kernel,
                tenant=spec.name,
                policy=self.policy.name,
                action=f"gate_{transition}",
                pages=0,
            )
        if tracepoints.active(kernel):
            tracepoints.emit(
                "serve:request",
                kernel,
                tenant=spec.name,
                client=rank,
                key=int(key),
                node=t.node,
                write=bool(write),
                dur_us=latency,
            )

    def _driver_body(self, tenant: _Tenant, t):
        """Per-tenant policy daemon: wake, consult the gate, act."""
        env = t.kernel.env
        period = self.policy.period_us
        turbo = self._turbo
        while True:
            yield env.timeout(period)
            # Mid-tick: leases must not plan past a wake in progress.
            tenant.next_wake = None
            if turbo is not None:
                # Strictly before the wake: at an exact tie the slow
                # world's driver event pops first (it was pushed a full
                # period earlier), so same-instant completions land
                # after the sample.
                turbo.flush(env.now, strict=True)
            # Telemetry rides the wake the driver already pays for;
            # when several tenants' drivers share an instant,
            # ``maybe_sample`` keeps one point per period.
            self.sampler.maybe_sample(period)
            if tenant.departed:
                return
            act = (not self.gated) or tenant.gate.at_risk
            yield from self.policy.tick(t, tenant, act)
            tenant.next_wake = env.now + period

    # --------------------------------------------------------------- stats ---
    def _stats(self) -> ServeStats:
        kernel = self.system.kernel
        if self._turbo is not None:
            self._turbo.finalize()
        self.sampler.sample()  # closing point at end-of-run state
        total = sum(t.requests_done for t in self.tenants)
        start = min(t.start_us for t in self.tenants if t.start_us is not None)
        end = max(t.end_us for t in self.tenants if t.end_us is not None)
        elapsed = max(end - start, 1e-9)
        tenants = {}
        for tenant in self.tenants:
            hist = tenant.hist
            tenants[tenant.spec.name] = {
                "requests": tenant.requests_done,
                "writes": tenant.writes,
                "clients": tenant.spec.clients,
                "home_node": tenant.spec.home_node,
                "client_nodes": sorted(tenant.client_nodes),
                "latency_us": {
                    "mean": hist.mean,
                    "p50": hist.quantile(0.50),
                    "p95": hist.quantile(0.95),
                    "p99": hist.quantile(0.99),
                },
                "slo": tenant.gate.summary(),
            }
        return ServeStats(
            policy=self.policy.name,
            requests=total,
            elapsed_us=elapsed,
            throughput_rps=total / elapsed * 1e6,
            p50_us=self.hist.quantile(0.50),
            p95_us=self.hist.quantile(0.95),
            p99_us=self.hist.quantile(0.99),
            mean_us=self.hist.mean,
            pages_migrated=kernel.stats.pages_migrated,
            policy_actions=self.policy.actions,
            policy_pages=self.policy.pages_touched,
            slo={
                "slo_us": self.slo_us,
                "gated": self.gated,
                "breaches": sum(t.gate.breaches for t in self.tenants),
                "recoveries": sum(t.gate.recoveries for t in self.tenants),
            },
            tenants=tenants,
            series=self.sampler.to_dict(),
        )


def smoke_workload(seed: Optional[int] = None) -> ServeStats:
    """A miniature serve run that exercises every ``serve:*`` emit site.

    One tenant loaded on node 0, clients on node 1, ungated next-touch
    driver — small enough for ``repro-experiments introspect`` and the
    tracepoint completeness tests, big enough that the driver provably
    marks pages and requests emit.
    """
    from ..system import System

    system = System()
    spec = TenantSpec(
        name="demo", keys=96, value_pages=2, clients=2, requests=120,
        home_node=0, client_node=1, drift_step=16, drift_period_us=150.0,
    )
    server = KVServer(
        system, [spec], NextTouchPolicy(period_us=60.0, hot_pages=64),
        gated=False, seed=seed,
    )
    return server.run()
