"""Pins for Ledger.total multi-prefix semantics and Tracer drop accounting."""

import numpy as np
import pytest

from repro.kernel.accounting import Ledger
from repro.sim.trace import Tracer


# ------------------------------------------------------------------- Ledger --

def make_ledger():
    ledger = Ledger()
    ledger.add("move_pages.control", 10.0)
    ledger.add("move_pages.copy", 30.0)
    ledger.add("nt.control", 5.0)
    ledger.add("blas.stall", 1.0)
    return ledger


def test_total_single_prefix():
    assert make_ledger().total("move_pages") == pytest.approx(40.0)


def test_total_multi_prefix_is_any_match():
    # Disjoint prefixes: a plain union.
    assert make_ledger().total("move_pages", "nt") == pytest.approx(45.0)


def test_total_overlapping_prefixes_count_each_tag_once():
    # "move_pages.copy" matches both prefixes but contributes once:
    # startswith(tuple) is one any-match test, not a per-prefix sum.
    ledger = make_ledger()
    assert ledger.total("move_pages", "move_pages.copy") == pytest.approx(40.0)
    assert ledger.total("move_pages.copy", "move_pages.copy") == pytest.approx(30.0)


def test_total_empty_string_prefix_matches_everything():
    ledger = make_ledger()
    assert ledger.total("") == pytest.approx(ledger.total())
    assert ledger.total("", "move_pages") == pytest.approx(ledger.total())


def test_total_no_prefixes_is_grand_total():
    assert make_ledger().total() == pytest.approx(46.0)


def test_total_unknown_prefix_is_zero():
    assert make_ledger().total("swap") == 0.0


# ------------------------------------------------------------------- Tracer --

def test_tracer_capacity_one_drop_counts():
    tracer = Tracer(capacity=1)
    tracer.record(0.0, 1.0, "a")
    assert tracer.dropped == 0
    tracer.record(1.0, 1.0, "b")
    tracer.record(2.0, 1.0, "c")
    assert tracer.dropped == 2
    assert [s.tag for s in tracer.samples] == ["c"]


def _typed_samples(tracer):
    """The retained samples with each value's type, for exact diffs."""
    return [
        (type(s.start_us), s.start_us, type(s.duration_us), s.duration_us, s.tag)
        for s in tracer.samples
    ]


@pytest.mark.parametrize("capacity,records", [(3, 3), (3, 4), (3, 10), (7, 20)])
def test_tracer_drop_count_is_records_minus_capacity(capacity, records):
    # Floats and np.float64s mixed, as the turbo replays emit them.
    starts = [np.float64(i) if i % 2 else float(i) for i in range(records)]
    durations = [1.0 if i % 3 else np.float64(0.5 * i) for i in range(records)]
    tags = [f"t{i}" for i in range(records)]
    tracer = Tracer(capacity=capacity)
    for record in zip(starts, durations, tags):
        tracer.record(*record)
    assert tracer.dropped == max(0, records - capacity)
    assert len(tracer.samples) == min(records, capacity)
    # The *newest* samples are the ones retained.
    assert tracer.samples[-1].tag == f"t{records - 1}"

    # The batch entry, in uneven chunks: an empty one, one longer than
    # the capacity whenever there are that many records, then 1, 2, 1,
    # ... and a trailing empty one.
    cuts = [0, 0, min(records, capacity + 1)]
    step = 1
    while cuts[-1] < records:
        cuts.append(min(records, cuts[-1] + step))
        step = 3 - step
    cuts.append(records)
    batched = Tracer(capacity=capacity)
    for lo, hi in zip(cuts, cuts[1:]):
        batched.record_batch(starts[lo:hi], durations[lo:hi], tags[lo:hi])
    assert batched.dropped == tracer.dropped
    assert _typed_samples(batched) == _typed_samples(tracer)
    assert batched.span() == tracer.span()
    assert batched.total() == tracer.total()
    assert batched.durations == tuple(s.duration_us for s in tracer.samples)

    # clear() forgets the window and the drop count, and the tracer
    # then counts like a new one.
    batched.clear()
    assert batched.dropped == 0
    assert batched.samples == ()
    assert batched.span() == (0.0, 0.0)
    assert batched.total() == 0
    batched.record_batch(starts, durations, tags)
    assert batched.dropped == tracer.dropped
    assert _typed_samples(batched) == _typed_samples(tracer)


def test_tracer_batch_rejects_ragged_columns():
    tracer = Tracer()
    with pytest.raises(ValueError):
        tracer.record_batch([0.0, 1.0], [1.0], ["a", "b"])
    assert tracer.samples == () and tracer.dropped == 0


def test_tracer_drop_count_survives_capacity_rebinding():
    # The eviction check is against the deque's maxlen, so a stale
    # `capacity` attribute cannot desynchronise the count.
    tracer = Tracer(capacity=2)
    tracer.capacity = 99
    for i in range(5):
        tracer.record(float(i), 1.0, "x")
    assert tracer.dropped == 3


def test_tracer_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        Tracer(capacity=0)
