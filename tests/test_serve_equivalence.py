"""Serve turbo vs per-request equivalence.

The batching controller (:mod:`repro.apps.servops`) commits runs of
requests ahead of simulated time and replays their float effects;
these tests pin the contract that every simulated observable — latency
histograms, SLO gate transitions, telemetry counters and series,
ledger totals — is **bit-identical** to the per-request path, for
every policy, and that the building blocks (vectorized Zipfian pairs,
batched histogram/gate feeds) consume state exactly as their scalar
counterparts do.
"""

import json
import random

import pytest

from repro.apps.kvserver import (
    KVServer,
    SloGate,
    ZipfianKeys,
    default_tenants,
    make_policy,
)
from repro.experiments.common import fresh_system
from repro.obs.metrics import Histogram, _quantile
from repro.obs.telemetry import stats_snapshot

POLICIES = ("static", "move_pages", "nexttouch", "autonuma", "replicate")
CLIENTS, REQUESTS = 2, 240
#: ``(policy, tenants)`` races: three tenants under the policy's name,
#: one tenant under ``<policy>-1``.
RACES = [pytest.param(p, 3, id=p) for p in POLICIES] + [
    pytest.param(p, 1, id=f"{p}-1") for p in POLICIES
]


def _race(policy, slow, monkeypatch, tenants):
    """One race at ``fig_serve.race``'s defaults, built here so the
    test can read the kernel afterwards. Returns ``(kernel, stats)``."""
    if slow:
        monkeypatch.setenv("REPRO_SLOW_PATH", "1")
    else:
        monkeypatch.delenv("REPRO_SLOW_PATH", raising=False)
    system = fresh_system()
    specs = default_tenants(
        tenants, system.machine.num_nodes, clients=CLIENTS, requests=REQUESTS
    )
    server = KVServer(
        system, specs, make_policy(policy),
        gated=policy != "static", seed=20260809,
    )
    return system.kernel, server.run()


# ------------------------------------------------- end-to-end, per policy ----

@pytest.mark.parametrize(("policy", "tenants"), RACES)
def test_turbo_serve_is_bit_identical_to_slow_path(policy, tenants, monkeypatch):
    """The full serve manifest (percentiles, SLO summaries, telemetry
    series), the ledger's totals and counts, and the kernel's
    ``stats_snapshot`` are identical with the turbo path on or off
    (``REPRO_SLOW_PATH=1``). Both worlds serve every issued request,
    split between batched and per-request; ``replicate`` batches
    none. A one-tenant race leaves the queue idle more often, so the
    kernel run-ops get their chance too — with the policy's heat
    profiler attached, which they must not starve of records."""
    issued = tenants * CLIENTS * REQUESTS
    kernel_t, turbo = _race(policy, False, monkeypatch, tenants)
    kernel_s, slow = _race(policy, True, monkeypatch, tenants)
    assert json.dumps(turbo.to_dict(), sort_keys=True) == json.dumps(
        slow.to_dict(), sort_keys=True
    )
    assert dict(kernel_t.ledger.totals) == dict(kernel_s.ledger.totals)
    assert dict(kernel_t.ledger.counts) == dict(kernel_s.ledger.counts)
    assert stats_snapshot(kernel_t) == stats_snapshot(kernel_s)
    for kernel in (kernel_t, kernel_s):
        variant = kernel.stats.variant_snapshot()
        assert variant["serve_turbo_requests"] + variant["serve_slow_requests"] == issued
    assert kernel_s.stats.serve_turbo_requests == 0
    if policy == "replicate":
        assert kernel_t.stats.serve_turbo_requests == 0


def _serve_static(slow, monkeypatch):
    if slow:
        monkeypatch.setenv("REPRO_SLOW_PATH", "1")
    else:
        monkeypatch.delenv("REPRO_SLOW_PATH", raising=False)
    system = fresh_system()
    specs = default_tenants(
        2, system.machine.num_nodes, keys=64, clients=2, requests=200
    )
    server = KVServer(system, specs, make_policy("static"), gated=False, seed=99)
    stats = server.run()
    return system.kernel, stats


def test_turbo_engages_and_variant_counters_stay_out_of_snapshots(monkeypatch):
    """The turbo world actually batches (variant counters say so), the
    slow world reports zero batches, and neither world's
    ``stats_snapshot`` contains the variant counters — they are wall
    -clock bookkeeping, not simulated state."""
    total = 2 * 2 * 200  # tenants x clients x requests
    kernel_t, _ = _serve_static(False, monkeypatch)
    variant_t = kernel_t.stats.variant_snapshot()
    assert variant_t["serve_turbo_batches"] > 0
    assert variant_t["serve_turbo_requests"] > 0
    assert variant_t["serve_turbo_requests"] + variant_t["serve_slow_requests"] == total

    kernel_s, _ = _serve_static(True, monkeypatch)
    variant_s = kernel_s.stats.variant_snapshot()
    assert variant_s["serve_turbo_batches"] == 0
    assert variant_s["serve_turbo_requests"] == 0
    assert variant_s["serve_slow_requests"] == total

    for kernel in (kernel_t, kernel_s):
        snapshot = stats_snapshot(kernel)
        assert "serve_turbo_batches" not in snapshot
        assert "serve_turbo_requests" not in snapshot
        assert "serve_slow_requests" not in snapshot
    # Simulated counters, by contrast, match exactly.
    assert stats_snapshot(kernel_t) == stats_snapshot(kernel_s)


# ------------------------------------------------------- building blocks ----

def test_zipf_pairs_match_scalar_draws_across_drift_boundaries():
    """``pairs(n)`` consumes the RNG stream exactly as n interleaved
    sample()/uniform() call pairs, and the caller-side rotation
    ``(rank + offset(t)) % nkeys`` reproduces scalar keys even when
    consecutive requests straddle drift-period boundaries."""
    nkeys = 96
    kwargs = dict(seed=5, drift_step=7, drift_period_us=50.0)
    batched = ZipfianKeys(nkeys, 0.9, **kwargs)
    scalar = ZipfianKeys(nkeys, 0.9, **kwargs)
    chunks = [batched.pairs(64), batched.pairs(136)]
    t = 0.0
    for ranks, coins in chunks:
        for i in range(len(ranks)):
            assert (int(ranks[i]) + batched.offset(t)) % nkeys == scalar.sample(t)
            assert float(coins[i]) == scalar.uniform()
            t += 17.0  # crosses a 50 us drift boundary every ~3 pairs


def test_zipf_pairs_without_drift_need_no_rotation():
    """With drift disabled ``offset`` is identically zero and pairs'
    ranks are already clipped — the turbo loop uses them as keys
    directly, so pin rank == scalar key."""
    batched = ZipfianKeys(32, 0.9, seed=3)
    scalar = ZipfianKeys(32, 0.9, seed=3)
    ranks, coins = batched.pairs(100)
    for i in range(100):
        assert int(ranks[i]) == scalar.sample(123.0 * i)
        assert float(coins[i]) == scalar.uniform()


def test_observe_many_matches_sequential_observe_bit_for_bit():
    """Reservoir contents *and* RNG state match a scalar observe loop
    after arbitrary chunking — well past the reservoir bound, so the
    Vitter replacement path (the inlined ``_randbelow``) is exercised."""
    rng = random.Random(1234)
    values = [rng.expovariate(1 / 50.0) for _ in range(2000)]
    scalar = Histogram("serve.latency")
    batched = Histogram("serve.latency")
    for v in values:
        scalar.observe(v)
    batched.observe_many(values[:7])
    batched.observe_many([])  # empty batch is a no-op
    batched.observe_many(values[7:700])
    batched.observe_many(values[700:])
    assert batched.count == scalar.count
    assert batched.sum == scalar.sum
    assert batched.min == scalar.min
    assert batched.max == scalar.max
    assert batched._reservoir == scalar._reservoir
    assert batched._rng.getstate() == scalar._rng.getstate()
    assert batched.dump() == scalar.dump()


def test_gate_observe_batch_matches_scalar_observe():
    """The incrementally-sorted window view feeds the exact hysteresis
    logic: transitions, counts and the rolling p99 all match a scalar
    observe loop — and a gate that mixes both paths (slow requests
    interleaved with drained batches) stays in lockstep too."""
    rng = random.Random(77)
    samples = [(rng.uniform(50.0, 2000.0), float(i)) for i in range(1500)]
    scalar = SloGate(900.0, window=128)
    batched = SloGate(900.0, window=128)
    mixed = SloGate(900.0, window=128)
    for latency, t in samples:
        scalar.observe(latency, t)
    batched.observe_batch([s[0] for s in samples], [s[1] for s in samples])
    for i in range(0, len(samples), 13):
        chunk = samples[i:i + 7]
        mixed.observe_batch([s[0] for s in chunk], [s[1] for s in chunk])
        for latency, t in samples[i + 7:i + 13]:
            mixed.observe(latency, t)
    for gate in (batched, mixed):
        assert gate.transitions == scalar.transitions
        assert gate.at_risk == scalar.at_risk
        assert gate.breaches == scalar.breaches
        assert gate.recoveries == scalar.recoveries
        assert gate.rolling_p99() == scalar.rolling_p99()
        assert list(gate._window) == list(scalar._window)


def test_gate_p99_matches_a_fresh_sort_of_the_window():
    """The sorted mirror both feed paths maintain is the window, sorted:
    the rolling p99 after every observation equals the p99 of a fresh
    sort, from the first samples through many evictions."""
    rng = random.Random(78)
    gate = SloGate(900.0, window=64)
    for i in range(400):
        gate.observe(rng.uniform(50.0, 2000.0), float(i))
        assert gate.rolling_p99() == _quantile(sorted(gate._window), 0.99)
