"""Serve turbo: request batches as the serve path's native currency.

``KVServer._client_body`` is (was) the last per-request Python hot
loop: one generator round-trip, one scalar Zipfian sample, two
``Histogram.observe`` calls and one ``SloGate.observe`` per request.
This module gives the serve path the same treatment ``runops.py`` gave
the kernel: a **classifier** that recognises stretches of requests
whose simulated effect is fully predictable from current kernel state,
and a **committer** that replays those effects in one host step —
bit-identical to the per-request path, falling back to it on any
disqualifier.

The key observation is the same one behind the kernel fast paths: a
request that hits only *present* pages (with write permission when it
is a write) takes the valid-run branch of
:func:`repro.kernel.access.touch_range` — no faults, no locks, no PTE
mutation — so its latency is a pure function of the value's per-page
placement, and its side effects are exactly

* one heat record (when a profiler is attached),
* one ``serve.access`` ledger add (plus ``serve.think``),
* one latency observation into two histograms and the SLO gate.

:class:`ServeTurbo` plans such requests ahead of simulated time
("leases"), parks the client generator on a single ``timeout_at`` to
the end of the planned stretch, and queues the side effects with their
exact simulated timestamps. Queued effects are drained back into the
real structures at every point the slow world could have observed them
(policy-driver wakes, any interleaved slow request, end of run), in
global timestamp order, so every float lands in the same accumulator
in the same order as the per-request world:

* latencies drain through :meth:`repro.obs.metrics.Histogram.observe_many`
  and :meth:`repro.apps.kvserver.SloGate.observe_batch`;
* heat drains through :meth:`repro.kernel.heat.HeatTracker.record_many`
  (counts commute — only window contents matter);
* ``serve.*`` ledger adds are deferred at the source
  (:meth:`repro.kernel.accounting.Ledger.begin_defer`) and replayed in
  ``(time, seq)`` order at finalize, because float addition is
  order-sensitive and live slow-path adds must interleave with queued
  turbo adds exactly as the slow world would have issued them.

A lease stops (and the client falls back to one per-request iteration,
consuming the *same* pre-drawn Zipfian pair) at the first disqualifier:

* the global gate :func:`serve_turbo_ok` is off
  (``force_slow_path``, which ``REPRO_SLOW_PATH=1`` sets, an attached
  tracepoint recorder, or an attached ledger sink such as a tracer,
  whose samples the deferred ``serve.*`` replay would deliver out of
  engine order);
* the tenant's policy driver is due to wake inside the horizon — the
  lease never crosses ``tenant.next_wake``, so ticks, heat snapshots
  and time-series samples see exactly the slow world's state;
* the policy declares the tenant unsafe
  (:meth:`repro.apps.kvserver.PolicyDriver.turbo_safe`): an active
  autonuma scanner mutates PTEs asynchronously, and ``replicate``
  prices reads through its replica ledger, which the eligibility
  table does not model, so every ``replicate`` tenant runs
  per-request;
* the next request touches a page that is not present (or not
  writable, for a write);
* kernel state changed since the eligibility table was built (watched
  via a tuple of mutation-indicating counters — see
  :meth:`ServeTurbo._epoch`).

SLO-gate transitions need **no** disqualifier: queued observations
replay through the exact hysteresis logic (against an incrementally
maintained sorted window), and the driver reads ``gate.at_risk`` only
at wakes, after the queue has drained up to that instant.

Everything here is wall-clock only. ``tests/test_serve_equivalence.py``
pins turbo-vs-slow equality of every simulated observable across all
five policies.
"""

from __future__ import annotations

import heapq
from typing import Optional

import numpy as np

from ..kernel.access import _access_cost_us
from ..kernel.pagetable import PTE_PRESENT, PTE_WRITE
from ..obs import tracepoints
from ..util.units import PAGE_SIZE
from .kvserver import REQUEST_BYTES

__all__ = ["serve_turbo_ok", "ServeTurbo", "ServeTable", "build_generic_table"]

#: Ledger tag prefixes the controller defers and replays (everything
#: the serve request paths charge: access, think, coherence, load).
SERVE_TAG_PREFIXES: tuple[str, ...] = ("serve.",)

#: Zipfian pairs drawn per refill (any chunking consumes the RNG
#: stream identically to scalar draws — pinned by tests).
_REFILL = 1024

#: Cache slot for "this tenant/node has no usable table this epoch".
_NO_TABLE = object()


def serve_turbo_ok(kernel) -> bool:
    """Whether the serve batching layer may plan ahead of simulated time.

    Shares ``Kernel.turbo_ok``'s ``force_slow_path`` and tracepoint
    clauses but not its ``env.idle`` clause: serve clients always have
    runnable peers, so the controller instead guarantees
    non-interference structurally (lease horizons never cross a driver
    wake, effects drain before any observer runs).

    Unlike the kernel gate it also declines while any ledger sink is
    attached (a :class:`~repro.sim.trace.Tracer`): a lease defers its
    ``serve.*`` adds and replays them at :meth:`ServeTurbo.finalize`,
    after the live kernel adds of the same stretch, so a sink would
    see them out of engine order.
    """
    return (
        not kernel.force_slow_path
        and not tracepoints.tracepoints_enabled()
        and not kernel.ledger.sinks
    )


class ServeTable:
    """Per-(tenant, node) request classification, valid for one epoch.

    ``ok_read`` / ``ok_write`` say whether a key's whole value takes
    the valid-run (fault-free, lock-free) access path; ``cost`` is the
    exact simulated access charge the slow path would compute;
    ``heat`` is the pre-resolved profiler record
    ``(pid, base_addr, npages, node)`` or ``None``.
    """

    __slots__ = ("ok_read", "ok_write", "cost", "heat")

    def __init__(self, ok_read, ok_write, cost, heat) -> None:
        self.ok_read = ok_read
        self.ok_write = ok_write
        self.cost = cost
        self.heat = heat


def build_generic_table(kernel, tenant, node: int, bytes_per_page: float):
    """Classify every key of ``tenant`` for a reader on ``node`` under
    the plain :meth:`PolicyDriver.access` path (one contiguous VMA).

    A key is eligible when every page of its value passes the exact
    ``need_bits`` test of :func:`repro.kernel.access.touch_range` (so
    the slow path would take one valid run over the whole value); its
    cost is computed by the same :func:`_access_cost_us` call the slow
    path makes, hence bit-identical.
    """
    spec = tenant.spec
    resolved = tenant.process.addr_space.resolve(tenant.addr)
    if resolved is None:
        return None
    vma, idx0 = resolved
    nkeys, vp = spec.keys, spec.value_pages
    npages = nkeys * vp
    if idx0 + npages > vma.npages or not vma.allows(False):
        return None
    pt = vma.pt
    flags = np.asarray(pt.flags[idx0:idx0 + npages]).reshape(nkeys, vp)
    need_w = PTE_PRESENT | PTE_WRITE
    ok_read = ((flags & PTE_PRESENT) == PTE_PRESENT).all(axis=1)
    if vma.allows(True):
        ok_write = ((flags & need_w) == need_w).all(axis=1)
    else:
        ok_write = np.zeros(nkeys, dtype=bool)
    # All keys' costs in one vectorized sweep, bit-identical to the
    # per-key ``_access_cost_us``: the per-node counts matrix replaces
    # bincount, and terms accumulate in the same ascending-node order
    # with the same elementwise expression — the extra zero-count
    # terms add exact 0.0, which never changes a float.
    nodes_mat = np.asarray(pt.node[idx0:idx0 + npages]).reshape(nkeys, vp)
    num_nodes = kernel.machine.num_nodes
    row = kernel.machine.numa_factor_row(node)
    bw = kernel.cost.local_stream_bw
    counts = (nodes_mat[:, :, None] == np.arange(num_nodes)).sum(axis=1)
    cost_vec = np.zeros(nkeys, dtype=np.float64)
    for dst in range(num_nodes):
        cost_vec += counts[:, dst] * bytes_per_page * row[dst] / bw
    cost = cost_vec.tolist()
    heat: list[Optional[tuple]] = [None] * nkeys
    if kernel.access_profiler is not None:
        pid = tenant.process.pid
        base0 = vma.addr_of_page(idx0)
        value_bytes = vp * PAGE_SIZE
        for k in np.flatnonzero(ok_read | ok_write):
            heat[int(k)] = (pid, base0 + int(k) * value_bytes, vp, node)
    # Plain lists: the lease loop indexes these one key at a time, and
    # list[int] beats ndarray scalar access at that grain.
    return ServeTable(ok_read.tolist(), ok_write.tolist(), cost, heat)


class _ClientLease:
    """Per-client planning state: the pre-drawn Zipfian pair buffer and
    the commit cursor."""

    __slots__ = ("tenant", "node", "zipf", "ranks", "coins", "writes",
                 "pos", "done", "park")

    def __init__(self, tenant, node: int, zipf) -> None:
        self.tenant = tenant
        self.node = node
        self.zipf = zipf
        # Pre-drawn pair buffers as plain lists: the lease loop reads
        # one element per planned request, and list indexing beats
        # per-element ndarray access severalfold at that grain.
        self.ranks: list[int] = []
        self.coins: list[float] = []
        self.writes: list[bool] = []  #: coin >= read_fraction, per pair
        self.pos = 0
        self.done = 0  #: requests committed or executed so far
        self.park = 0.0  #: timeout_at deadline after a successful lease


class ServeTurbo:
    """The per-run controller owned by one :class:`KVServer`."""

    def __init__(self, server) -> None:
        self.server = server
        self.kernel = server.system.kernel
        self.env = self.kernel.env
        self._heat = server.heat
        self._seq = 0  #: shared tie-break for queued effects
        #: queued profiler records: (start_us, seq, (pid, base, npages, node))
        self._heat_q: list[tuple] = []
        #: queued observations: (t2_us, seq, latency_us, write, tenant)
        self._obs_q: list[tuple] = []
        #: every serve.* ledger add, live or planned: (t_us, seq, tag, us)
        self._ledger_log: list[tuple] = []
        self._tables: dict[tuple, object] = {}
        self._epoch_seen: Optional[tuple] = None
        self._finalized = False
        self.kernel.ledger.begin_defer(SERVE_TAG_PREFIXES, self._ledger_sink)

    # ---------------------------------------------------------- plumbing ----
    def _ledger_sink(self, tag: str, us: float) -> None:
        # Live slow-path adds, stamped with their true simulated time so
        # the finalize sort interleaves them with planned adds exactly.
        self._ledger_log.append((self.env.now, self._seq, tag, us))
        self._seq += 1

    def _epoch(self) -> tuple:
        """A tuple that changes whenever kernel state a table depends on
        could have: faults, migrations, swap-ins, next-touch marks,
        TLB activity (mprotect fences) and frame allocations. Monotonic
        counters only, so comparing tuples is exact; a bump from an
        unrelated tenant just causes a cheap rebuild.
        """
        stats = self.kernel.stats
        allocs = 0
        for alloc in self.kernel.allocators:
            allocs += alloc.total_allocs
        return (
            allocs,
            stats.pages_migrated,
            stats.nt_faults,
            stats.minor_faults,
            stats.prot_faults,
            stats.cow_faults,
            stats.nexttouch_marks,
            stats.pages_swapped_in,
            stats.tlb_shootdowns,
            stats.tlb_local_flushes,
        )

    def register(self, tenant, node: int, zipf) -> _ClientLease:
        """Create the lease state for one client stream."""
        return _ClientLease(tenant, node, zipf)

    def _refill(self, state: _ClientLease, need: int) -> None:
        ranks, coins = state.zipf.pairs(min(int(need), _REFILL))
        state.ranks = ranks.tolist()
        state.coins = coins.tolist()
        state.writes = (coins >= state.tenant.spec.read_fraction).tolist()
        state.pos = 0

    def take_pair(self, state: _ClientLease) -> tuple[int, float]:
        """The next pre-drawn (rank, coin) pair, for a slow request.

        The pair the lease refused is *consumed here*, never re-drawn —
        the client's RNG stream position must match the scalar world's.
        """
        if state.pos >= len(state.ranks):
            self._refill(state, state.tenant.spec.requests - state.done)
        rank = state.ranks[state.pos]
        coin = state.coins[state.pos]
        state.pos += 1
        state.done += 1
        return rank, coin

    # ------------------------------------------------------------- lease ----
    def lease(self, state: _ClientLease) -> int:
        """Plan and commit a run of requests starting now.

        Returns the number committed (0 means: run the next request on
        the per-request path). On success ``state.park`` holds the
        simulated completion time of the last committed request.
        """
        kernel = self.kernel
        tenant = state.tenant
        spec = tenant.spec
        if not serve_turbo_ok(kernel):
            return 0
        now = self.env.now
        wake = tenant.next_wake
        if wake is None or wake <= now:
            return 0
        policy = self.server.policy
        if not policy.turbo_safe(tenant):
            return 0
        epoch = self._epoch()
        if epoch != self._epoch_seen:
            self._tables.clear()
            self._epoch_seen = epoch
        slot = (spec.name, state.node)
        table = self._tables.get(slot)
        if table is None:
            table = build_generic_table(kernel, tenant, state.node, REQUEST_BYTES)
            self._tables[slot] = table if table is not None else _NO_TABLE
        if table is None or table is _NO_TABLE:
            return 0
        ok_read = table.ok_read
        ok_write = table.ok_write
        cost_of = table.cost
        heat_of = table.heat
        heat_on = self._heat is not None
        zipf = state.zipf
        nkeys = spec.keys
        think = spec.think_us
        remaining = spec.requests - state.done
        ranks, writes, pos = state.ranks, state.writes, state.pos
        size = len(ranks)
        ledger_log = self._ledger_log
        heat_q = self._heat_q
        obs_push = heapq.heappush
        obs_q = self._obs_q
        # Hoist the rotation: without drift it is identically 0 (and
        # ranks are pre-clipped, so key == rank); with drift, ``t`` is
        # monotone within the lease, so the offset only changes when
        # ``t`` crosses a period boundary — track the period index and
        # recompute just then, exactly ``zipf.offset(t)`` otherwise.
        period = zipf.drift_period_us if zipf.drift_step > 0 else 0.0
        off = 0
        last_div = -1.0
        t = now
        n = 0
        while n < remaining:
            if pos >= size:
                state.pos = pos
                self._refill(state, remaining - n)
                ranks, writes, pos = state.ranks, state.writes, state.pos
                size = len(ranks)
            if period > 0.0:
                d = t // period
                if d != last_div:
                    off = int(d) * zipf.drift_step % nkeys
                    last_div = d
                key = (ranks[pos] + off) % nkeys
            else:
                key = ranks[pos]
            write = writes[pos]
            if not (ok_write[key] if write else ok_read[key]):
                break
            cost = cost_of[key]
            t1 = t + cost
            t2 = t1 + think if think > 0.0 else t1
            # A request whose completion *straddles* the wake is still
            # committable: the slow world computes its cost (and records
            # its heat, and stamps its ledger adds) at start time ``t``,
            # strictly before the driver runs, and observes its latency
            # at ``t2``, strictly after — which is exactly how the
            # queues replay it (heat/ledger carry pre-wake timestamps;
            # the wake's strict-< flush leaves the observation for a
            # later drain). The lease must stop right after it, though:
            # requests beyond ``t2`` would price from pre-wake tables
            # the driver may have invalidated. Only the exact tie runs
            # slow — there the driver's event (pushed a whole period
            # earlier) pops first in the slow world and the engine's
            # same-instant ordering is not ours to assume.
            straddle = t2 >= wake
            if straddle and t2 == wake:
                break
            pos += 1
            seq = self._seq
            self._seq = seq + 2
            if cost > 0.0:
                ledger_log.append((t, seq, "serve.access", cost))
            if think > 0.0:
                ledger_log.append((t1, seq + 1, "serve.think", think))
            if heat_on:
                entry = heat_of[key]
                if entry is not None:
                    obs_push(heat_q, (t, seq, entry))
            obs_push(obs_q, (t2, seq, t2 - t, 1 if write else 0, tenant))
            t = t2
            n += 1
            if straddle:
                break
        state.pos = pos
        if n == 0:
            return 0
        state.done += n
        state.park = t
        stats = kernel.stats
        stats.serve_turbo_batches += 1
        stats.serve_turbo_requests += n
        return n

    # ------------------------------------------------------------- drain ----
    def flush(self, limit: float, *, strict: bool = False) -> None:
        """Drain queued effects with timestamps up to ``limit``.

        ``strict`` excludes effects *at* ``limit`` — used at policy
        driver wakes, where the slow world's driver event pops before
        any same-instant request completion.
        """
        if not self._heat_q and not self._obs_q:
            return
        self._flush_heat(limit, strict)
        self._flush_obs(limit, strict)

    def _take(self, q: list, limit: float, strict: bool) -> list:
        out = []
        pop = heapq.heappop
        while q and (q[0][0] < limit or (not strict and q[0][0] == limit)):
            out.append(pop(q))
        return out

    def _flush_heat(self, limit: float, strict: bool) -> None:
        taken = self._take(self._heat_q, limit, strict)
        if taken:
            self._heat.record_many(entry for _, _, entry in taken)

    def _flush_obs(self, limit: float, strict: bool) -> None:
        taken = self._take(self._obs_q, limit, strict)
        if not taken:
            return
        # Global histogram sees every latency in completion order ...
        self.server.hist.observe_many([e[2] for e in taken])
        # ... and each tenant's histogram/gate/counters see exactly its
        # own subsequence (order within a structure is all that counts).
        groups: dict[int, list] = {}
        order = []
        for e in taken:
            tid = id(e[4])
            bucket = groups.get(tid)
            if bucket is None:
                groups[tid] = bucket = []
                order.append(e[4])
            bucket.append(e)
        for tenant in order:
            entries = groups[id(tenant)]
            latencies = [e[2] for e in entries]
            tenant.requests_done += len(entries)
            tenant.writes += sum(e[3] for e in entries)
            tenant.hist.observe_many(latencies)
            tenant.gate.observe_batch(latencies, [e[0] for e in entries])

    def finalize(self) -> None:
        """Drain everything and fold the deferred ledger stream back.

        The log holds live slow-path adds (stamped at call time) and
        planned turbo adds (stamped with their simulated charge time);
        sorting by ``(time, seq)`` reproduces the slow world's add
        order — engine time is monotonic, so the slow world's call
        order *is* timestamp order — and replaying through the real
        :meth:`Ledger.add` reproduces its float accumulation exactly.
        """
        if self._finalized:
            return
        self._finalized = True
        inf = float("inf")
        self._flush_heat(inf, False)
        self._flush_obs(inf, False)
        ledger = self.kernel.ledger
        ledger.end_defer()
        log = self._ledger_log
        # Plain tuple sort: seq (element 1) is unique, so comparison
        # never reaches the tag/us elements — same (time, seq) order,
        # no per-element key closure.
        log.sort()
        add = ledger.add
        for _, _, tag, us in log:
            add(tag, us)
        log.clear()
