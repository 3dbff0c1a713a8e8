"""Fast-path equivalence: the turbo paths must be bit-identical.

The wall-clock fast paths (see ``docs/performance.md``) carry a hard
contract: the vectorized page walks and the run-op turbo commits
must leave the simulation in EXACTLY the state
the per-page slow path produces — same simulated clock (bit-for-bit
float equality), same ledger totals and counts, same page tables, same
NUMA counters, same allocator and lock statistics — and same always-on
telemetry: the ``KernelStats`` counters (scalar and dict-valued) and a
closing ``TimeSeriesSampler`` sample are part of the diffed state.

This suite replays seeded fuzzer workloads — the same generator
``make fuzz`` uses, so mprotect / madvise / fork / swap / migration
interleavings are all covered — through two fresh
:class:`~repro.check.harness.OpExecutor` systems (the kernel half of
the differential harness): one with the fast paths enabled (the
default), one with ``kernel.force_slow_path = True``. The canonical
states are then diffed field by field. ``events_processed`` is deliberately outside
the comparison: replaying a run in one event is the point of a
run-op, so only observable state and the clock must agree.

Every workload is replayed a second time with a :class:`Tracer`
attached to both twins: a tracer is a ledger sink that keeps the fast
paths on, so its ``(start, duration, tag)`` sample lists must match
fast vs slow exactly too — each replay hands it the instant the
per-page path would have booked the charge at.
"""

from __future__ import annotations

from typing import Optional

import pytest

from repro.check.fuzzer import generate_ops
from repro.check.harness import OpExecutor
from repro.errors import SyscallError
from repro.kernel.mempolicy import MemPolicy
from repro.kernel.syscalls import Madvise
from repro.kernel.vma import PROT_RW
from repro.sim.trace import Tracer
from repro.util.units import PAGE_SIZE

#: Seeded workloads replayed by the equivalence sweep. 52 seeds of 40
#: ops each comfortably covers every op kind (asserted below) and both
#: fault batch shapes (batch 1 / 4 / 512).
SEEDS = range(1, 53)
N_OPS = 40

#: Extra seeds replayed with a non-zero per-page access cost, so the
#: vectorized ``_access_cost_us`` and the turbo access-charge replay
#: are exercised too (the fuzzer's own touches use bytes_per_page=0).
ACCESS_SEEDS = range(101, 113)

#: Tracer capacity for traced replays: large enough that no workload
#: here evicts a sample, so the whole charge stream is diffed.
TRACE_CAPACITY = 1 << 20


def _lock_stats(stats) -> tuple:
    return (
        stats.acquisitions,
        stats.contended,
        stats.wait_time,
        stats.hold_time,
        stats.max_queue,
    )


def _executor(
    *, slow: bool, bytes_per_page: float = 0.0, tracer: Optional[Tracer] = None
) -> OpExecutor:
    """A fresh executor, forced onto the slow path if ``slow``, with
    ``tracer`` attached before its first op."""
    ex = OpExecutor(bytes_per_page=bytes_per_page)
    ex.kernel.force_slow_path = slow
    if tracer is not None:
        tracer.attach(ex.kernel)
    return ex


def canonical(ex: OpExecutor) -> dict:
    """Everything observable about ``ex``'s end state, for exact diffing."""
    from repro.obs.timeseries import TimeSeriesSampler

    k = ex.kernel
    # One closing telemetry sample: t_us, every counter, per-node
    # occupancy. Goes through the exact-diff like everything else.
    sampler = TimeSeriesSampler(k)
    sampler.sample()
    state = {
        "timeseries": sampler.to_dict(),
        "now": k.env.now,
        "ledger_totals": dict(k.ledger.totals),
        "ledger_counts": dict(k.ledger.counts),
        "stats": dict(vars(k.stats)),
        "numa_hit": list(k.numastat.numa_hit),
        "numa_miss": list(k.numastat.numa_miss),
        "numa_foreign": list(k.numastat.numa_foreign),
        "interleave_hit": list(k.numastat.interleave_hit),
        "frame_refs": dict(k.frame_refs),
        "allocators": [
            (a.used, a.free, a.total_allocs, a._bump, a._free[: a._nfree].tolist())
            for a in k.allocators
        ],
        "lru": [_lock_stats(lock.stats) for lock in k.lru_locks],
        "swap_used": k.swap.used if getattr(k, "swap", None) is not None else 0,
        # The migration channels: what the run-op copy replays must
        # leave exactly as the event-driven transfers do, down to the
        # wake count a residual second wake bumps.
        "channels": {
            key: (
                ch.bytes_transferred,
                ch._busy_integral,
                ch._last_update,
                ch._wake_generation,
            )
            for key, ch in sorted(k._channels.items())
        },
    }
    procs = {}
    for name, proc in sorted(ex.procs.items()):
        vmas = []
        for vma in proc.addr_space.vmas:
            vmas.append(
                {
                    "start": vma.start,
                    "prot": int(vma.prot),
                    "frame": vma.pt.frame.tolist(),
                    "node": vma.pt.node.tolist(),
                    "flags": vma.pt.flags.tolist(),
                    "swap": vma.pt.swap.tolist(),
                }
            )
        procs[name] = {
            "vmas": vmas,
            "mmap_sem": _lock_stats(proc.mmap_sem.stats),
            "ptls": {
                key: _lock_stats(lock.stats)
                for key, lock in sorted(proc._ptls.items())
            },
        }
    state["procs"] = procs
    profiler = k.access_profiler
    if profiler is not None:
        # What the policy drivers read: every page's per-node counts.
        state["heat"] = {
            "touches": profiler.touches_recorded,
            "window": profiler.window_node_totals(),
            "cells": {
                key: cell.tolist()
                for key, cell in profiler.snapshot(clear=False).items()
            },
        }
    return state


def _diff(a, b, path="") -> list[str]:
    """Recursive exact diff; floats must match bit for bit."""
    out: list[str] = []
    if type(a) is not type(b):
        return [f"{path}: type {type(a).__name__} != {type(b).__name__}"]
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b), key=repr):
            if key not in a or key not in b:
                out.append(f"{path}.{key}: only on one side")
            else:
                out.extend(_diff(a[key], b[key], f"{path}.{key}"))
    elif isinstance(a, (list, tuple)):
        if len(a) != len(b):
            out.append(f"{path}: length {len(a)} != {len(b)}")
        else:
            for i, (x, y) in enumerate(zip(a, b)):
                out.extend(_diff(x, y, f"{path}[{i}]"))
    elif a != b:
        out.append(f"{path}: fast {a!r} != slow {b!r}")
    return out


def _trace(tracer: Tracer) -> list:
    """The traced charge stream as plain tuples (nothing evicted)."""
    assert tracer.dropped == 0
    return [(s.start_us, s.duration_us, s.tag) for s in tracer.samples]


def _assert_same_trace(fast: Tracer, slow: Tracer, label: str = "") -> None:
    fast_trace, slow_trace = _trace(fast), _trace(slow)
    assert fast_trace, f"{label}: nothing traced"
    diffs = _diff(fast_trace, slow_trace, "trace")
    assert not diffs, f"{label}:\n" + "\n".join(diffs[:12])


def _tracers() -> tuple[Tracer, Tracer]:
    """A fast/slow pair of tracers large enough to keep every sample."""
    return Tracer(capacity=TRACE_CAPACITY), Tracer(capacity=TRACE_CAPACITY)


def _replay(
    seed: int, *, slow: bool, bytes_per_page: float = 0.0, tracer: Optional[Tracer] = None
):
    ex = _executor(slow=slow, bytes_per_page=bytes_per_page, tracer=tracer)
    outcomes = [
        ex.run_op(op) if ex.resolves(op) else None for op in generate_ops(seed, N_OPS)
    ]
    return outcomes, ex


def _assert_equivalent(seed: int, bytes_per_page: float = 0.0) -> None:
    fast_out, fast = _replay(seed, slow=False, bytes_per_page=bytes_per_page)
    slow_out, slow = _replay(seed, slow=True, bytes_per_page=bytes_per_page)
    assert fast_out == slow_out, f"seed {seed}: outcomes diverged"
    diffs = _diff(canonical(fast), canonical(slow))
    assert not diffs, f"seed {seed}:\n" + "\n".join(diffs[:12])
    fast_tracer, slow_tracer = _tracers()
    _replay(seed, slow=False, bytes_per_page=bytes_per_page, tracer=fast_tracer)
    _replay(seed, slow=True, bytes_per_page=bytes_per_page, tracer=slow_tracer)
    _assert_same_trace(fast_tracer, slow_tracer, f"seed {seed}")


def _spy(monkeypatch, module, name: str) -> list[bool]:
    """Wrap the run-op ``module.name`` so each call records whether it
    engaged (returned non-``None``); returns the record."""
    outcomes: list[bool] = []
    original = getattr(module, name)

    def spied(*args, **kwargs):
        result = original(*args, **kwargs)
        outcomes.append(result is not None)
        return result

    monkeypatch.setattr(module, name, spied)
    return outcomes


@pytest.mark.parametrize("seed", SEEDS)
def test_fastpath_matches_slow_path(seed):
    _assert_equivalent(seed)


@pytest.mark.parametrize("seed", ACCESS_SEEDS)
def test_fastpath_matches_slow_path_with_access_cost(seed):
    _assert_equivalent(seed, bytes_per_page=float(PAGE_SIZE))


def test_corpus_covers_every_op_kind():
    """The sweep must exercise the whole syscall surface — in
    particular mprotect and both madvise flavours, which gate the
    valid-run and next-touch classification in the vectorized walk."""
    kinds = {op["kind"] for seed in SEEDS for op in generate_ops(seed, N_OPS)}
    assert kinds >= {
        "mmap",
        "touch",
        "mprotect",
        "madv_nt",
        "madv_dontneed",
        "move_pages",
        "munmap",
        "migrate_pages",
        "fork",
        "swap_out",
    }


@pytest.mark.parametrize("interleave", [False, True])
def test_turbo_demand_zero_matches_slow_path(interleave, monkeypatch):
    """Targeted per-page walk: touches at batch=1 with a non-zero
    access cost, under DEFAULT and INTERLEAVE policies. The touch runs
    as two storms, pages 0-36 then 37-1499, so the second storm's first
    pmd lock and its LRU lock already hold time: each page's hold must
    fold into that running total in page order. demand_zero_run
    replays both DEFAULT storms and declines every interleaved run,
    which the per-page path then takes."""
    import repro.kernel.access as access

    outcomes = _spy(monkeypatch, access, "demand_zero_run")

    def script(ex):
        proc = ex.procs["p0"]
        npages = 1500
        split = 37

        def body(t):
            addr = yield from t.mmap(npages * PAGE_SIZE, PROT_RW)
            if interleave:
                yield from t.mbind(
                    addr, npages * PAGE_SIZE, MemPolicy.interleave(0, 1, 2, 3)
                )
            for lo, hi in ((0, split), (split, npages)):
                yield from t.touch(
                    addr + lo * PAGE_SIZE,
                    (hi - lo) * PAGE_SIZE,
                    write=True,
                    batch=1,
                    bytes_per_page=float(PAGE_SIZE),
                )
            return addr

        _spawn(ex, proc, 0, body)

    _assert_script_equivalent(script, bytes_per_page=float(PAGE_SIZE))
    assert outcomes, "demand_zero_run was never called"
    assert all(engaged != interleave for engaged in outcomes), outcomes


# ------------------------------------------------------- run-op layer ----
# Targeted scenarios for the run-granular kernel ops (runops.py): each
# drives one run-op — migrate_run, cow_break_run, swap_in_run — plus
# its edge shapes (VMA straddling, partial presence, lock waiters,
# zero length), always against the forced-slow twin.


def _spawn(ex: OpExecutor, proc, core: int, body):
    """Run one thread to completion on ``ex``'s system."""
    thread = ex.system.spawn(proc, core, body)
    return ex.system.run_to(thread.join())


def _assert_script_equivalent(script, bytes_per_page: float = 0.0):
    """Replay ``script(ex)`` fast and forced-slow; states must match,
    and so must the sample lists of a second, traced pair."""

    def run(slow: bool, tracer: Optional[Tracer] = None) -> OpExecutor:
        ex = _executor(slow=slow, bytes_per_page=bytes_per_page, tracer=tracer)
        script(ex)
        return ex

    diffs = _diff(canonical(run(False)), canonical(run(True)))
    assert not diffs, "\n".join(diffs[:12])
    fast_tracer, slow_tracer = _tracers()
    run(False, fast_tracer)
    run(True, slow_tracer)
    _assert_same_trace(fast_tracer, slow_tracer)


@pytest.mark.parametrize("shape", ["single_src", "multi_src", "reuse", "late"])
def test_migrate_run_matches_slow_path(shape):
    """A 1500-page move_pages call through migrate_run, in four shapes:

    * ``single_src`` (bound) and ``multi_src`` (interleaved) sources;
    * ``reuse``: a first buffer is moved to node 1 and unmapped, so a
      second buffer's 93 full chunks and 12-page tail take their frames
      from node 1's free list, in the per-chunk allocation order;
    * ``late``: the move starts at t = 2**24 + 3.3 us, where every
      chunk's copy takes the channel's residual second wake.
    """

    def script(ex):
        proc = ex.procs["p0"]
        npages = 1500
        nbytes = npages * PAGE_SIZE

        def body(t):
            if shape == "reuse":
                first = yield from t.mmap(nbytes, PROT_RW)
                yield from t.touch(first, nbytes)
                yield from t.move_range(first, nbytes, 1)
                yield from t.munmap(first, nbytes)
            addr = yield from t.mmap(nbytes, PROT_RW)
            if shape == "multi_src":
                yield from t.mbind(addr, nbytes, MemPolicy.interleave(0, 1, 2, 3))
            yield from t.touch(addr, nbytes)
            if shape == "late":
                yield t.compute(2**24 + 3.3)
            yield from t.move_range(addr, nbytes, 1)

        _spawn(ex, proc, 0, body)

    _assert_script_equivalent(script)


@pytest.mark.parametrize("bytes_per_page", [0.0, float(PAGE_SIZE)])
def test_cow_break_run_matches_slow_path(bytes_per_page, monkeypatch):
    """The batch=1 write storm after fork: shared frames copy, the
    sole-owner half (child unmapped it) re-arms the write bit. The
    frames sit on node 0. The storm runs twice: a toucher on node 1
    copies through the migration channel, one on node 0 takes the
    same-node copy. cow_break_run must replay both."""
    import repro.kernel.access as access

    outcomes = _spy(monkeypatch, access, "cow_break_run")

    def script(ex):
        proc = ex.procs["p0"]
        npages = 600
        shared = {}

        def parent_setup(t):
            addr = yield from t.mmap(npages * PAGE_SIZE, PROT_RW)
            yield from t.touch(addr, npages * PAGE_SIZE)
            shared["addr"] = addr
            shared["child"] = yield from t.fork()

        _spawn(ex, proc, 0, parent_setup)

        def child_trim(t):
            # Release the child's first half: those parent pages become
            # sole-owner, so the run mixes cow.reuse and cow.copy.
            yield from t.munmap(shared["addr"], (npages // 2) * PAGE_SIZE)

        _spawn(ex, shared["child"], 0, child_trim)
        toucher_core = ex.system.machine.cores_of_node(toucher_node)[0]

        def parent_touch(t):
            yield from t.touch(
                shared["addr"],
                npages * PAGE_SIZE,
                write=True,
                batch=1,
                bytes_per_page=ex.bytes_per_page,
            )

        _spawn(ex, proc, toucher_core, parent_touch)

    for toucher_node in (1, 0):
        outcomes.clear()
        _assert_script_equivalent(script, bytes_per_page=bytes_per_page)
        assert outcomes and all(outcomes), (toucher_node, outcomes)


@pytest.mark.parametrize("bytes_per_page", [0.0, float(PAGE_SIZE)])
def test_swap_in_run_matches_slow_path(bytes_per_page, monkeypatch):
    """Forced swap-out then a batch=1 touch storm: run-granular
    swap-out and swap_in_run, faulting back on the toucher's node.
    swap_in_run must replay the storm."""
    import repro.kernel.access as access

    outcomes = _spy(monkeypatch, access, "swap_in_run")

    def script(ex):
        proc = ex.procs["p0"]
        npages = 800
        shared = {}

        def setup(t):
            addr = yield from t.mmap(npages * PAGE_SIZE, PROT_RW)
            yield from t.touch(addr, npages * PAGE_SIZE)
            yield from t.swap_out(addr, npages * PAGE_SIZE)
            shared["addr"] = addr

        _spawn(ex, proc, 0, setup)
        toucher_core = ex.system.machine.cores_of_node(1)[0]

        def toucher(t):
            yield from t.touch(
                shared["addr"],
                npages * PAGE_SIZE,
                write=True,
                batch=1,
                bytes_per_page=ex.bytes_per_page,
            )

        _spawn(ex, proc, toucher_core, toucher)

    _assert_script_equivalent(script, bytes_per_page=bytes_per_page)
    assert outcomes and all(outcomes), outcomes


#: The ``late`` next-touch storm's start: from 2**27 us on, every 4 KiB
#: copy's first channel wake leaves a residual for a second wake.
NT_LATE_US = 2**27 + 3.3


def _nt_storm(shape: str, storm_events: dict, setup_hook=None):
    """A script whose node-1 thread next-touches a 1500-page buffer at
    batch=1 (see :func:`test_nt_fault_run_matches_slow_path` for the
    shapes). ``storm_events[slow]`` gets the engine events the storm
    took on each side; ``setup_hook(t, addr, nbytes)`` runs on the
    owner thread before the buffer is marked."""

    def script(ex):
        proc = ex.procs["p0"]
        npages = 1500
        nbytes = npages * PAGE_SIZE
        shared = {}

        def setup(t):
            # A 37-page pad: the buffer starts off a pmd boundary.
            yield from t.mmap(37 * PAGE_SIZE, PROT_RW)
            if shape == "reuse":
                first = yield from t.mmap(600 * PAGE_SIZE, PROT_RW, policy=MemPolicy.bind(1))
                yield from t.touch(first, 600 * PAGE_SIZE)
                yield from t.munmap(first, 600 * PAGE_SIZE)
            if shape == "multi_src":
                policy = MemPolicy.interleave(0, 2, 3)
            else:
                policy = MemPolicy.bind(0)
            addr = yield from t.mmap(nbytes, PROT_RW, policy=policy)
            yield from t.touch(addr, nbytes, bytes_per_page=ex.bytes_per_page)
            if setup_hook is not None:
                yield from setup_hook(t, addr, nbytes)
            yield from t.madvise(addr, nbytes, Madvise.NEXTTOUCH)
            shared["addr"] = addr

        _spawn(ex, proc, 0, setup)
        toucher_core = ex.system.machine.cores_of_node(1)[0]
        if shape == "two_storms":
            storms = ((0, 37), (37, npages))
        else:
            storms = ((0, npages),)

        def toucher(t):
            if shape == "late":
                yield t.compute(NT_LATE_US - ex.kernel.env.now)
            before = ex.kernel.env.events_processed
            for lo, hi in storms:
                yield from t.touch(
                    shared["addr"] + lo * PAGE_SIZE,
                    (hi - lo) * PAGE_SIZE,
                    batch=1,
                    bytes_per_page=ex.bytes_per_page,
                )
            storm_events[ex.kernel.force_slow_path] = ex.kernel.env.events_processed - before
            if shape == "late":
                # Every copy took the residual second wake: three wake
                # generations per copy, against two for a copy that
                # finishes on its first wake.
                channel = ex.kernel.migration_channel(proc)
                assert channel._wake_generation == 3 * npages

        _spawn(ex, proc, toucher_core, toucher)

    return script


@pytest.mark.parametrize("bytes_per_page", [0.0, 64.0, float(PAGE_SIZE)])
@pytest.mark.parametrize("shape", ["plain", "reuse", "late", "two_storms", "multi_src"])
def test_nt_fault_run_matches_slow_path(shape, bytes_per_page):
    """A batch=1 next-touch storm through nt_fault_run, in five shapes:

    * ``plain``: a bind(0) buffer starting off a pmd boundary, touched
      from a node-1 core, so the run's first PTL covers only part of it;
    * ``reuse``: node 1's free list holds 600 frames, so the storm
      takes them in per-page pop order, then the bump range;
    * ``late``: the storm starts at t = 2**27 + 3.3 us, where every
      copy takes the channel's residual second wake;
    * ``two_storms``: the touch runs as two storms, pages 0-36 then
      37-1499, so the second storm's first PTL already holds time;
    * ``multi_src``: the buffer is interleaved over nodes 0, 2 and 3.

    Each must replay in a handful of engine events: a gate that always
    declines fails here, not just in the wall-clock benchmark.
    """
    storm_events: dict[bool, int] = {}
    _assert_script_equivalent(_nt_storm(shape, storm_events), bytes_per_page=bytes_per_page)
    assert storm_events[False] * 100 < storm_events[True], storm_events


@pytest.mark.parametrize("case", ["stay", "shared", "fraction", "profiler"])
def test_nt_fault_run_declines_match_slow_path(case, monkeypatch):
    """Next-touch storms nt_fault_run must refuse, fast vs slow:

    * ``stay``: the first 100 pages already sit on the toucher's node
      (nt_fault_batch's stay branch), so the run-op declines until the
      walk has passed them, then replays the rest;
    * ``shared``: the buffer's frames are shared with a forked child;
    * ``fraction``: ``nt_copy_locked_fraction=0.25`` splits each copy
      around the PTL release;
    * ``profiler``: a heat profiler is attached (the per-page walk
      reports each page's access to it; ``canonical`` diffs its
      counts), which also makes the buffer's first touch decline
      demand_zero_run.
    """
    import dataclasses

    import repro.kernel.access as access
    from repro.kernel.heat import HeatTracker

    outcomes = _spy(monkeypatch, access, "nt_fault_run")

    def setup_hook(t, addr, nbytes):
        if case == "stay":
            yield from t.move_range(addr, 100 * PAGE_SIZE, 1)
        elif case == "shared":
            yield from t.fork()

    inner = _nt_storm("plain", {}, setup_hook)

    def script(ex):
        kernel = ex.kernel
        if case == "fraction":
            kernel.cost = dataclasses.replace(kernel.cost, nt_copy_locked_fraction=0.25)
        elif case == "profiler":
            kernel.access_profiler = HeatTracker(kernel.machine.num_nodes)
        inner(ex)

    _assert_script_equivalent(script, bytes_per_page=64.0)
    assert False in outcomes, "the run-op never declined"
    assert (True in outcomes) == (case == "stay"), outcomes


@pytest.mark.parametrize("storm", ["demand_zero", "next_touch"])
def test_runops_decline_on_deferred_tag(storm):
    """A batch=1 storm whose access tag a ledger deferral routes (the
    serve lease defers ``serve.*``) must reach the deferral sink add by
    add, fast vs slow. A run-op folds its caller's tag straight into
    the totals, so it has to decline:

    * ``demand_zero``: the first touch of a 64-page bind(0) buffer;
    * ``next_touch``: the buffer is marked with madvise(NEXTTOUCH) and
      then touched from a node-1 core.
    """
    nbytes = 64 * PAGE_SIZE

    def run(slow: bool):
        ex = _executor(slow=slow)
        kernel = ex.kernel
        proc = ex.procs["p0"]
        shared = {}
        deferred = []

        def setup(t):
            addr = yield from t.mmap(nbytes, PROT_RW, policy=MemPolicy.bind(0))
            if storm == "next_touch":
                yield from t.touch(addr, nbytes)
                yield from t.madvise(addr, nbytes, Madvise.NEXTTOUCH)
            shared["addr"] = addr

        def body(t):
            yield from t.touch(
                shared["addr"], nbytes, batch=1, bytes_per_page=64.0, tag="serve.load"
            )

        _spawn(ex, proc, 0, setup)
        core = 0 if storm == "demand_zero" else ex.system.machine.cores_of_node(1)[0]
        kernel.ledger.begin_defer(
            ("serve.",), lambda tag, us: deferred.append((kernel.env.now, tag, us))
        )
        _spawn(ex, proc, core, body)
        kernel.ledger.end_defer()
        return canonical(ex), deferred

    fast_state, fast_deferred = run(False)
    slow_state, slow_deferred = run(True)
    assert len(slow_deferred) == 64
    assert "serve.load" not in fast_state["ledger_totals"]
    diffs = _diff(fast_deferred, slow_deferred, "deferred") + _diff(fast_state, slow_state)
    assert not diffs, "\n".join(diffs[:12])


def test_run_straddling_vma_boundary():
    """Adjacent VMAs (one mapping split three ways by mprotect):
    touches, next-touch marks and a move_pages call spanning the
    boundaries split into per-VMA runs on both paths."""
    from repro.kernel.vma import PROT_READ

    def script(ex):
        proc = ex.procs["p0"]
        npages = 500
        shared = {}

        def setup(t):
            addr = yield from t.mmap(npages * PAGE_SIZE, PROT_RW)
            total = npages * PAGE_SIZE
            # Downgrade the middle: the mapping splits into three
            # adjacent VMAs, so every whole-range call below straddles.
            yield from t.mprotect(addr + 200 * PAGE_SIZE, 100 * PAGE_SIZE, PROT_READ)
            yield from t.touch(addr, total, write=False)
            yield from t.move_range(addr, total, 1)
            yield from t.madvise(addr, total, Madvise.NEXTTOUCH)
            shared["addr"], shared["total"] = addr, total

        _spawn(ex, proc, 0, setup)
        assert (
            sum(1 for v in proc.addr_space.vmas if v.npages in (100, 200)) >= 3
        ), "mprotect must have split the mapping"
        toucher_core = ex.system.machine.cores_of_node(2)[0]

        def toucher(t):
            yield from t.touch(shared["addr"], shared["total"], write=False, batch=1)

        _spawn(ex, proc, toucher_core, toucher)

    _assert_script_equivalent(script)


def test_partially_present_run():
    """Ranges where only some pages are populated: migration filters
    to the present subset, the touch mixes demand-zero and present
    runs, and the next-touch pass marks only what exists."""

    def script(ex):
        proc = ex.procs["p0"]
        npages = 1000

        def body(t):
            addr = yield from t.mmap(npages * PAGE_SIZE, PROT_RW)
            yield from t.touch(addr, 400 * PAGE_SIZE)
            yield from t.touch(addr + 600 * PAGE_SIZE, 50 * PAGE_SIZE)
            yield from t.move_range(addr, npages * PAGE_SIZE, 1)
            yield from t.touch(addr, npages * PAGE_SIZE, write=True, batch=1)
            yield from t.madvise(addr, npages * PAGE_SIZE, Madvise.NEXTTOUCH)
            return addr

        addr = _spawn(ex, proc, 0, body)
        toucher_core = ex.system.machine.cores_of_node(1)[0]

        def toucher(t):
            yield from t.touch(addr, npages * PAGE_SIZE, batch=1)

        _spawn(ex, proc, toucher_core, toucher)

    _assert_script_equivalent(script)


def test_zero_length_runs():
    """Zero-byte syscalls behave identically on both paths (touch
    rejects them, the others no-op), and the run-ops refuse a
    zero-length run outright."""
    from repro.kernel.runops import cow_break_run, nt_fault_run, swap_in_run

    def script(ex):
        proc = ex.procs["p0"]
        captured = {}

        def body(t):
            addr = yield from t.mmap(64 * PAGE_SIZE, PROT_RW)
            yield from t.touch(addr, 64 * PAGE_SIZE)
            outcomes = []
            for call in ("touch", "move", "swap"):
                try:
                    if call == "touch":
                        yield from t.touch(addr, 0)
                    elif call == "move":
                        yield from t.move_range(addr, 0, 1)
                    else:
                        yield from t.swap_out(addr, 0)
                    outcomes.append((call, "ok"))
                except SyscallError as exc:
                    outcomes.append((call, exc.errno.name))
            assert outcomes == [
                ("touch", "EINVAL"),
                ("move", "ok"),
                ("swap", "EINVAL"),
            ], outcomes
            captured["thread"], captured["addr"] = t, addr

        _spawn(ex, proc, 0, body)
        if not ex.kernel.force_slow_path:
            vma = next(
                v for v in proc.addr_space.vmas if v.start == captured["addr"]
            )
            thread = captured["thread"]
            assert cow_break_run(ex.kernel, thread, vma, 0, 0, 0.0, "t") is None
            assert swap_in_run(ex.kernel, thread, vma, 0, 0, 0.0, "t") is None
            assert nt_fault_run(ex.kernel, thread, vma, 0, 0, 0.0, "t") is None

    _assert_script_equivalent(script)


def test_runop_bails_with_lock_waiters():
    """A held split PTL or LRU lock, or a PTL with a parked waiter,
    makes every run-op decline (the slow path, which can queue on the
    lock, takes over)."""
    import numpy as np

    from repro.kernel.fault import _pmd_locks
    from repro.kernel.runops import cow_break_run, migrate_run, nt_fault_run

    ex = _executor(slow=False)
    proc = ex.procs["p0"]
    captured = {}

    def body(t):
        addr = yield from t.mmap(64 * PAGE_SIZE, PROT_RW)
        yield from t.touch(addr, 64 * PAGE_SIZE)
        yield from t.madvise(addr, 64 * PAGE_SIZE, Madvise.NEXTTOUCH)
        captured["thread"], captured["addr"] = t, addr

    def remote(t):
        captured["remote"] = t  # a node-1 toucher for the node-0 pages
        yield t.compute(0.0)

    _spawn(ex, proc, 0, body)
    _spawn(ex, proc, ex.system.machine.cores_of_node(1)[0], remote)
    vma = next(v for v in proc.addr_space.vmas if v.start == captured["addr"])
    thread = captured["thread"]

    assert _pmd_locks(proc, vma, 0, 8) is not None
    ptl = proc.ptl(vma.start, 0)
    ptl._available = 0  # simulate a holder without engine turns
    assert _pmd_locks(proc, vma, 0, 8) is None
    assert cow_break_run(ex.kernel, thread, vma, 0, 8, 0.0, "t") is None
    assert nt_fault_run(ex.kernel, captured["remote"], vma, 0, 8, 0.0, "t") is None
    ptl._available = 1
    ptl._waiters.append((None, 0.0))  # a parked waiter on a free lock
    assert _pmd_locks(proc, vma, 0, 8) is None
    assert nt_fault_run(ex.kernel, captured["remote"], vma, 0, 8, 0.0, "t") is None
    ptl._waiters.clear()

    idxs = np.arange(8, dtype=np.int64)
    lru = ex.kernel.lru_locks[1]
    lru._available = 0
    assert (
        migrate_run(ex.kernel, thread, vma, idxs, 1, control_us=0.1, tag="mp")
        is None
    )
    lru._available = 1
    # With the lock free again, the same call replays the run.
    assert nt_fault_run(ex.kernel, captured["remote"], vma, 0, 8, 0.0, "t") is not None


@pytest.mark.parametrize("scenario", ["migrate", "cow", "swap"])
def test_runops_coalesce_events(scenario):
    """Each run-op collapses its per-page event storm into a handful
    of engine events (the wall-clock point of the layer)."""

    def events(slow: bool) -> int:
        ex = _executor(slow=slow)
        proc = ex.procs["p0"]
        npages = 512
        shared = {}

        def setup(t):
            addr = yield from t.mmap(npages * PAGE_SIZE, PROT_RW)
            yield from t.touch(addr, npages * PAGE_SIZE)
            shared["addr"] = addr
            if scenario == "migrate":
                yield from t.move_range(addr, npages * PAGE_SIZE, 1)
            elif scenario == "cow":
                yield from t.fork()
            else:
                yield from t.swap_out(addr, npages * PAGE_SIZE)

        _spawn(ex, proc, 0, setup)
        if scenario != "migrate":

            def toucher(t):
                yield from t.touch(
                    shared["addr"], npages * PAGE_SIZE, write=True, batch=1
                )

            _spawn(ex, proc, ex.system.machine.cores_of_node(1)[0], toucher)
        return ex.kernel.env.events_processed

    fast, slow = events(False), events(True)
    assert fast < slow // 4, f"{scenario}: fast={fast} slow={slow}"


def test_force_slow_path_disables_turbo():
    """The escape hatch really does force the per-page walk: the slow
    side processes strictly more engine events for the same work, for
    a first-touch storm and for a next-touch storm alike."""

    def events(slow: bool) -> list[int]:
        ex = _executor(slow=slow)
        proc = ex.procs["p0"]
        counts = []

        def body(t):
            nbytes = 512 * PAGE_SIZE
            # Bound to node 1: the core-0 next-touch pulls every page.
            addr = yield from t.mmap(nbytes, PROT_RW, policy=MemPolicy.bind(1))
            for advice in (None, Madvise.NEXTTOUCH):
                if advice is not None:
                    yield from t.madvise(addr, nbytes, advice)
                before = ex.kernel.env.events_processed
                yield from t.touch(addr, nbytes, write=True, batch=1)
                counts.append(ex.kernel.env.events_processed - before)

        thread = ex.system.spawn(proc, 0, body, name="ev")
        ex.system.run_to(thread.join())
        return counts

    fast, slow = events(False), events(True)
    assert all(f < s for f, s in zip(fast, slow)), (fast, slow)


def test_float_horizon_stops_storm_at_same_page():
    """``run(until=<float>)`` stops a batch=1 first-touch storm of
    1,000 pages at the same page fast and forced-slow: the turbo gate
    declines while a float horizon is set, so no replay commits past
    it. The canonical states match at the horizon and after the run
    completes."""

    def run(slow: bool) -> tuple[dict, dict]:
        ex = _executor(slow=slow)

        def body(t):
            addr = yield from t.mmap(1000 * PAGE_SIZE, PROT_RW)
            yield from t.touch(addr, 1000 * PAGE_SIZE, batch=1)

        ex.system.spawn(ex.procs["p0"], 0, body)
        ex.system.run(until=200.0)
        assert ex.kernel.env.horizon is None
        at_horizon = canonical(ex)
        ex.system.run()
        return at_horizon, canonical(ex)

    fast, slow = run(False), run(True)
    assert 0 < fast[0]["stats"]["minor_faults"] < 1000  # stopped mid-storm
    assert fast[1]["stats"]["minor_faults"] == 1000
    for label, a, b in zip(("at the horizon", "at the end"), fast, slow):
        diffs = _diff(a, b)
        assert not diffs, f"{label}:\n" + "\n".join(diffs[:12])


def test_runops_engage_with_tracer_attached(monkeypatch):
    """A tracer is a ledger sink, not an observer the turbo gate must
    yield to: with one attached, ``turbo_ok()`` holds and every run-op
    commits its run instead of declining."""
    import repro.kernel.access as access
    import repro.kernel.migrate as migrate

    outcomes = {
        name: _spy(monkeypatch, module, name)
        for module, name in (
            (access, "demand_zero_run"),
            (access, "nt_fault_run"),
            (access, "cow_break_run"),
            (access, "swap_in_run"),
            (migrate, "migrate_run"),
        )
    }

    tracer = Tracer(capacity=TRACE_CAPACITY)
    ex = _executor(slow=False, tracer=tracer)
    assert ex.kernel.turbo_ok()
    proc = ex.procs["p0"]
    npages = 256
    total = npages * PAGE_SIZE
    shared = {}

    def setup(t):
        addr = yield from t.mmap(total, PROT_RW)
        yield from t.touch(addr, total, write=True, batch=1)
        yield from t.move_range(addr, total, 1)
        # Next-touch from this node-0 core pulls the run back.
        yield from t.madvise(addr, total, Madvise.NEXTTOUCH)
        yield from t.touch(addr, total, write=True, batch=1)
        shared["addr"] = addr
        shared["child"] = yield from t.fork()

    _spawn(ex, proc, 0, setup)
    toucher_core = ex.system.machine.cores_of_node(2)[0]

    def cow_then_swap(t):
        yield from t.touch(shared["addr"], total, write=True, batch=1)
        yield from t.swap_out(shared["addr"], total)
        yield from t.touch(shared["addr"], total, write=True, batch=1)

    _spawn(ex, proc, toucher_core, cow_then_swap)
    assert ex.kernel.turbo_ok()
    assert all(engaged and all(engaged) for engaged in outcomes.values()), outcomes
    tags = {s.tag for s in tracer.samples}
    assert {"fault.anon", "move_pages.copy", "nt.copy", "cow.copy", "swap.in"} <= tags
