"""MetricsRegistry: instruments, snapshots, merging, system publishing."""

import json

import pytest

from repro import MemPolicy, PROT_RW, System
from repro.errors import ReproError
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    publish_tracer,
    system_metrics,
)
from repro.sim.trace import Tracer


def small_run():
    system = System()
    proc = system.create_process("obs")

    def body(t):
        src = yield from t.mmap(1 << 16, PROT_RW, policy=MemPolicy.bind(0))
        dst = yield from t.mmap(1 << 16, PROT_RW, policy=MemPolicy.bind(1))
        yield from t.touch(src, 1 << 16)
        yield from t.touch(dst, 1 << 16)
        yield from t.memcpy(dst, src, 1 << 16)  # crosses the 0->1 link
        yield from t.move_range(src, 1 << 16, 1)

    thread = system.spawn(proc, 0, body)
    system.run_to(thread.join())
    return system


def test_counter_gauge_histogram_basics():
    reg = MetricsRegistry()
    c = reg.counter("c")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)
    g = reg.gauge("g")
    g.set(7)
    g.set(3)
    assert g.value == 3.0
    h = reg.histogram("h")
    for v in (4.0, 1.0, 7.0):
        h.observe(v)
    assert (h.count, h.sum, h.min, h.max) == (3, 12.0, 1.0, 7.0)
    assert h.mean == pytest.approx(4.0)


def test_registry_get_or_create_and_type_conflict():
    reg = MetricsRegistry()
    assert reg.counter("x") is reg.counter("x")
    assert "x" in reg and len(reg) == 1
    with pytest.raises(TypeError):
        reg.gauge("x")


def test_snapshot_sorted_and_json_ready():
    reg = MetricsRegistry()
    reg.gauge("zz").set(1)
    reg.counter("aa").inc(2)
    reg.histogram("mm").observe(5)
    snap = reg.snapshot()
    assert list(snap) == ["aa", "mm", "zz"]
    assert snap["aa"] == {"type": "counter", "value": 2.0}
    assert snap["mm"]["mean"] == 5.0
    json.dumps(snap)  # must serialize without custom encoders


def test_empty_histogram_snapshot():
    reg = MetricsRegistry()
    reg.histogram("h")
    snap = reg.snapshot()["h"]
    assert snap["count"] == 0 and snap["min"] is None and snap["mean"] is None
    assert snap["p50"] is None and snap["p99"] is None


def test_merge_snapshots_semantics():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("c").inc(2)
    b.counter("c").inc(3)
    a.gauge("g").set(5)
    b.gauge("g").set(4)
    a.histogram("h").observe(1)
    b.histogram("h").observe(9)
    b.counter("only_b").inc(1)
    merged = merge_snapshots([a.snapshot(), b.snapshot()])
    assert merged["c"]["value"] == 5.0  # counters add
    assert merged["g"]["value"] == 5.0  # gauges keep the peak
    h = merged["h"]
    assert (h["count"], h["min"], h["max"]) == (2, 1.0, 9.0)
    assert h["mean"] == pytest.approx(5.0)
    assert merged["only_b"]["value"] == 1.0
    assert list(merged) == sorted(merged)


def test_merge_snapshots_kind_conflict_raises_repro_error():
    """Mixing instrument kinds under one name is a structural bug in
    the publishing code, reported as a clear ReproError, not a silent
    mis-merge or a bare KeyError downstream."""
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("x").inc()
    b.gauge("x").set(1)
    with pytest.raises(ReproError, match=r"metric 'x'.*counter.*gauge"):
        merge_snapshots([a.snapshot(), b.snapshot()])
    c = MetricsRegistry()
    c.histogram("x").observe(1.0)
    with pytest.raises(ReproError, match="same instrument type"):
        merge_snapshots([a.snapshot(), c.snapshot()])


def test_histogram_quantiles_basics():
    h = Histogram("q")
    assert h.quantile(0.5) is None  # no observations yet
    for v in range(1, 101):  # 1..100
        h.observe(float(v))
    assert h.quantile(0.0) == 1.0
    assert h.quantile(1.0) == 100.0
    assert h.quantile(0.5) == pytest.approx(50.5)
    assert h.quantile(0.95) == pytest.approx(95.05)
    with pytest.raises(ValueError):
        h.quantile(1.5)
    with pytest.raises(ValueError):
        h.quantile(-0.1)
    dump = h.dump()
    assert dump["p50"] == pytest.approx(50.5)
    assert dump["p95"] == pytest.approx(95.05)
    assert dump["p99"] == pytest.approx(99.01)
    assert len(dump["reservoir"]) == 100


def test_histogram_reservoir_is_bounded_and_deterministic():
    def fill(name):
        h = Histogram(name)
        for v in range(10_000):
            h.observe(float(v))
        return h

    a, b = fill("same"), fill("same")
    assert len(a._reservoir) == Histogram.RESERVOIR_SIZE
    assert a._reservoir == b._reservoir  # crc32-seeded RNG, not hash()
    assert a.dump() == b.dump()
    # the sample stays representative of the whole stream
    assert a.quantile(0.5) == pytest.approx(5000, rel=0.15)
    assert a.count == 10_000 and a.max == 9999.0


def test_merged_histograms_recompute_quantiles_within_bound():
    a, b = MetricsRegistry(), MetricsRegistry()
    for v in range(600):
        a.histogram("h").observe(float(v))
    for v in range(600, 1200):
        b.histogram("h").observe(float(v))
    merged = merge_snapshots([a.snapshot(), b.snapshot()])["h"]
    assert merged["count"] == 1200
    assert len(merged["reservoir"]) <= Histogram.RESERVOIR_SIZE
    assert merged["reservoir"] == sorted(merged["reservoir"])
    assert merged["p50"] == pytest.approx(599.5, rel=0.1)
    assert merged["p99"] > merged["p95"] > merged["p50"]


def test_registry_add_adopts_external_instruments():
    reg = MetricsRegistry()
    h = Histogram("tp.phase.nt.copy.dur_us")
    h.observe(3.0)
    reg.add(h)
    reg.add(h)  # same object: no-op
    assert reg.histogram("tp.phase.nt.copy.dur_us") is h
    with pytest.raises(TypeError):
        reg.add(Histogram("tp.phase.nt.copy.dur_us"))  # different object


def test_system_metrics_publishes_every_subsystem():
    system = small_run()
    snap = system_metrics(system).snapshot()
    assert snap["kernel.pages_migrated"]["value"] == 16.0  # 64 KiB / 4 KiB
    assert snap["kernel.pages_first_touched"]["value"] == 32.0  # src + dst
    assert snap["numa.numa_hit.node0"]["value"] >= 16.0
    assert snap["ledger.grand_total_us"]["value"] > 0
    assert any(name.startswith("ledger.total_us.move_pages") for name in snap)
    assert snap["lock.acquisitions"]["value"] > 0
    assert snap["link.utilization.0->1"]["value"] > 0
    assert snap["sim.time_us"]["value"] == system.now
    assert snap["sim.events_processed"]["value"] > 0


def test_system_metrics_is_deterministic():
    a = json.dumps(system_metrics(small_run()).snapshot())
    b = json.dumps(system_metrics(small_run()).snapshot())
    assert a == b


def test_publish_tracer_surfaces_drops():
    tracer = Tracer(capacity=2)
    for i in range(5):
        tracer.record(float(i), 1.0, "work")
    reg = MetricsRegistry()
    publish_tracer(reg, tracer)
    snap = reg.snapshot()
    assert snap["trace.dropped"]["value"] == 3.0
    assert snap["trace.samples"]["value"] == 2.0
    assert snap["trace.sample_duration_us"]["count"] == 2


def test_publish_tracer_reads_only_the_retained_window():
    # Eight samples, sample i at 10*i for i+1 us; capacity 3 keeps the
    # last three (50..56, 60..67, 70..78) and drops five.
    tracer = Tracer(capacity=3)
    tracer.record_batch([0.0, 10.0, 20.0, 30.0], [1.0, 2.0, 3.0, 4.0], ["a"] * 4)
    for i in range(4, 8):
        tracer.record(10.0 * i, i + 1.0, "b")
    reg = MetricsRegistry()
    publish_tracer(reg, tracer)
    snap = reg.snapshot()
    assert snap["trace.samples"]["value"] == 3.0
    assert snap["trace.dropped"]["value"] == 5.0
    assert snap["trace.span_us"]["value"] == 78.0 - 50.0
    hist = snap["trace.sample_duration_us"]
    assert (hist["count"], hist["sum"], hist["min"], hist["max"]) == (3, 21.0, 6.0, 8.0)
