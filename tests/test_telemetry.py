"""Tests for the always-on telemetry layer (repro.obs.telemetry,
repro.obs.timeseries) and tracers as ledger sinks.

The load-bearing properties:

* reading the counters never disengages the fast paths — a fresh
  system with telemetry is turbo-eligible, and sampling keeps it so;
* neither does a tracer: it is a sink on the ledger, attaching and
  detaching leave ``turbo_ok()`` holding, and stacked tracers detach
  independently in any order;
* the documented counter registry (``COUNTERS``) and the live
  ``KernelStats`` fields cannot drift apart;
* series merge in point order, invariant to how points were sharded.

Fast-vs-slow bit-identity of the counters themselves is pinned by
``tests/test_fastpath_equivalence.py`` (the counters and a closing
time-series sample are part of the diffed canonical state) and, for
one canned touch / swap / migrate / next-touch workload, by
``test_traced_kernel_still_counts``.
"""

from __future__ import annotations

import json

import pytest

from conftest import drive
from repro import PROT_RW, Madvise, System
from repro.kernel.swap import attach_swap
from repro.obs.telemetry import (
    COUNTERS,
    MIGRATION_REASONS,
    RUN_KINDS,
    KernelStats,
    stats_snapshot,
)
from repro.obs.timeseries import (
    DEFAULT_CAPACITY,
    SCHEMA,
    TimeSeriesSampler,
    chrome_counter_events,
    merge_series,
)
from repro.sim.trace import Tracer
from repro.util import PAGE_SIZE


# ----------------------------------------------------------- KernelStats ----


def test_counters_start_at_zero_with_fixed_keys():
    stats = KernelStats()
    assert all(getattr(stats, name) == 0 for name in KernelStats.SCALARS)
    assert set(stats.migrations) == set(MIGRATION_REASONS)
    assert set(stats.run_ops) == set(stats.run_pages) == set(RUN_KINDS)
    assert all(v == 0 for v in stats.snapshot().values())


def test_record_helpers_and_flat_names():
    stats = KernelStats()
    stats.record_migration("move_pages", 7)
    stats.record_run("migrate", 7, ops=2)
    stats.record_run("demand_zero", 64)
    flat = stats.snapshot()
    assert flat["migrations.move_pages"] == 7
    assert flat["run_ops.migrate"] == 2
    assert flat["run_pages.migrate"] == 7
    assert flat["run_ops.demand_zero"] == 1
    assert flat["run_pages.demand_zero"] == 64
    # fixed keys: a typo'd reason/kind raises instead of minting a key
    with pytest.raises(KeyError):
        stats.record_migration("mbind", 1)
    with pytest.raises(KeyError):
        stats.record_run("hugepage", 1)


def test_registry_matches_the_live_fields():
    """``COUNTERS`` (what docs/observability.md §10 documents) expands
    to exactly the names ``stats_snapshot`` emits — same contract the
    docs checker enforces against the markdown table."""
    system = System()
    num_nodes = system.machine.num_nodes
    expected = set()
    for name, _unit, _desc in COUNTERS:
        if "<reason>" in name:
            expected |= {name.replace("<reason>", r) for r in MIGRATION_REASONS}
        elif "<kind>" in name:
            expected |= {name.replace("<kind>", k) for k in RUN_KINDS}
        elif "<N>" in name:
            expected |= {name.replace("<N>", str(n)) for n in range(num_nodes)}
        else:
            expected.add(name)
    assert set(stats_snapshot(system.kernel)) == expected


# --------------------------------------------------- turbo eligibility ----


def test_telemetry_never_trips_turbo():
    system = System()
    kernel = system.kernel
    assert kernel.turbo_ok()
    # reading counters and sampling a series is not an observer
    kernel.stats.snapshot()
    sampler = TimeSeriesSampler(kernel)
    sampler.sample()
    assert kernel.turbo_ok()


def test_kernel_test_fixtures_take_the_fast_paths(system, checked_system):
    """The ``system`` and ``checked_system`` fixtures build what the
    experiments build, plus content tracking: both turbo gates hold,
    so kernel tests run the fast paths the experiments ship."""
    from repro.apps.servops import serve_turbo_ok

    for sys_ in (system, checked_system):
        assert sys_.kernel.track_contents
        assert sys_.kernel.turbo_ok()
        assert serve_turbo_ok(sys_.kernel)


def test_tracer_attach_detach_keeps_turbo_eligibility():
    """A tracer is a ledger sink: the fast paths hand it every charge's
    simulated instant, so attaching one leaves ``turbo_ok()`` holding."""
    system = System()
    kernel = system.kernel
    assert kernel.turbo_ok() and not kernel.ledger.sinks
    tracer = Tracer()
    tracer.attach(kernel)
    assert kernel.turbo_ok() and len(kernel.ledger.sinks) == 1
    tracer.detach(kernel)
    assert kernel.turbo_ok() and not kernel.ledger.sinks
    # detach on an untraced kernel is a no-op
    tracer.detach(kernel)
    assert kernel.turbo_ok() and not kernel.ledger.sinks


@pytest.mark.parametrize("first_out", ["first", "second"])
def test_stacked_tracers_detach_in_either_order(first_out):
    """Each tracer stops recording exactly when it detaches; the other
    keeps recording whichever attached last."""
    system = System()
    kernel = system.kernel
    tracers = {"first": Tracer(), "second": Tracer()}
    tracers["first"].attach(kernel)
    tracers["second"].attach(kernel)
    order = [first_out, "second" if first_out == "first" else "first"]

    def probe(tag: str) -> None:
        kernel.ledger.add(tag, 1.0)
        assert kernel.turbo_ok()

    probe("probe.both")
    tracers[order[0]].detach(kernel)
    probe("probe.one")
    tracers[order[1]].detach(kernel)
    probe("probe.none")
    gone, kept = tracers[order[0]], tracers[order[1]]
    assert [s.tag for s in gone.samples] == ["probe.both"]
    assert [s.tag for s in kept.samples] == ["probe.both", "probe.one"]
    assert not kernel.ledger.sinks


def test_traced_kernel_still_counts():
    """Counters accumulate identically with a tracer attached (they
    sit below the ledger sinks, on the kernel paths themselves) and on
    the forced-slow reference paths, over first touch, swap-out and
    swap-in, migration and a next-touch storm."""
    npages = 256
    size = npages * PAGE_SIZE

    def run(traced: bool = False, slow: bool = False) -> dict:
        system = System()
        kernel = system.kernel
        kernel.force_slow_path = slow
        if traced:
            Tracer().attach(kernel)
        attach_swap(kernel)

        def body(t):
            addr = yield from t.mmap(size, PROT_RW)
            yield from t.touch(addr, size, write=True, batch=1)
            yield from t.swap_out(addr, size // 2)
            yield from t.touch(addr, size // 2, batch=1)
            yield from t.move_range(addr, size, 1)
            # Next-touch from this node-0 core pulls every page back.
            yield from t.madvise(addr, size, Madvise.NEXTTOUCH)
            yield from t.touch(addr, size, batch=1)

        drive(system, body, core=0)
        return stats_snapshot(kernel)

    untraced = run()
    assert run(traced=True) == untraced
    assert run(slow=True) == untraced
    assert untraced["minor_faults"] == npages
    assert untraced["nt_faults"] == npages
    assert untraced["pages_migrated"] == 2 * npages
    assert untraced["pages_swapped_out"] == npages // 2
    assert untraced["pages_swapped_in"] == npages // 2
    assert min(untraced.values()) >= 0


# ------------------------------------------------------------- sampler ----


def test_sampler_points_and_snapshot_fields():
    system = System()
    proc = system.create_process("p")
    sampler = TimeSeriesSampler(system.kernel)

    def body(t):
        addr = yield from t.mmap(16 * PAGE_SIZE, PROT_RW)
        yield from t.touch(addr, 16 * PAGE_SIZE)

    drive(system, body, core=0, process=proc)
    point = sampler.sample()
    assert point["t_us"] == float(system.kernel.env.now)
    assert point["minor_faults"] == 16
    assert point["node_used.node0"] >= 16
    doc = sampler.to_dict()
    assert doc["schema"] == SCHEMA
    assert doc["capacity"] == DEFAULT_CAPACITY
    assert doc["dropped"] == 0 and len(doc["points"]) == 1
    json.dumps(doc)  # JSON-ready, no numpy scalars


def test_sampler_ring_bound_and_drop_accounting():
    system = System()
    sampler = TimeSeriesSampler(system.kernel, capacity=4)
    for _ in range(10):
        sampler.sample()
    assert len(sampler.points) == 4
    assert sampler.dropped == 6
    with pytest.raises(ValueError):
        TimeSeriesSampler(system.kernel, capacity=0)


def test_maybe_sample_dedups_by_simulated_time():
    system = System()
    sampler = TimeSeriesSampler(system.kernel)
    assert sampler.maybe_sample(100.0) is not None  # first call samples
    assert sampler.maybe_sample(100.0) is None  # no sim time passed
    assert len(sampler.points) == 1


def test_sampler_extra_sources_skip_none():
    system = System()
    sampler = TimeSeriesSampler(
        system.kernel,
        extra_sources={"app.p99": lambda: None, "app.rate": lambda: 3.5},
    )
    point = sampler.sample()
    assert "app.p99" not in point
    assert point["app.rate"] == 3.5


# ------------------------------------------------------------- exports ----


def test_chrome_counter_events_shape():
    system = System()
    sampler = TimeSeriesSampler(system.kernel)
    sampler.sample()
    events = chrome_counter_events(sampler.to_dict(), process_name="t")
    meta, counters = events[0], events[1:]
    assert meta["ph"] == "M" and meta["args"]["name"] == "t"
    assert counters and all(e["ph"] == "C" for e in counters)
    assert all("t_us" != e["name"] for e in counters)
    assert all(e["args"]["value"] is not None for e in counters)


def test_merge_series_order_and_accounting():
    system = System()
    one = TimeSeriesSampler(system.kernel, capacity=1)
    one.sample()
    one.sample()  # evicts: dropped=1
    two = TimeSeriesSampler(system.kernel)
    two.sample()
    merged = merge_series([one.to_dict(), None, two.to_dict()])
    assert merged["schema"] == SCHEMA
    assert merged["dropped"] == 1
    assert merged["capacity"] == DEFAULT_CAPACITY
    assert len(merged["points"]) == 2
    # order given is order kept
    assert merged["points"][0] is one.points[0] or merged["points"][0] == one.points[0]
