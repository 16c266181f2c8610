"""Log-bucketed latency histograms: error bounds, exemplars, merging."""

import random

import pytest

from repro.errors import ObservabilityError
from repro.obs.histogram import LatencyHistogram


def test_bucket_geometry_is_monotone_and_covering():
    hist = LatencyHistogram(min_value_us=0.01, sub_buckets=32)
    last = -1
    for value in (0.001, 0.01, 0.02, 0.5, 1.0, 17.3, 1000.0, 1e6):
        index = hist.bucket_index(value)
        assert index >= last or value < 0.01
        lower, upper = hist.bucket_bounds(index)
        if value >= 0.01:
            assert lower <= value < upper * (1 + 1e-12)
        last = index


def test_percentiles_match_exact_stat_within_bound():
    rng = random.Random(11)
    for _ in range(50):
        hist = LatencyHistogram()
        samples = []
        for _ in range(rng.randrange(1, 300)):
            value = rng.lognormvariate(3.0, 1.5)
            hist.record(value)
            samples.append(value)
        assert hist.verify_against_samples(
            samples, qs=(0.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0)) == []


def test_relative_error_shrinks_with_more_sub_buckets():
    rng = random.Random(3)
    values = [rng.uniform(1.0, 1000.0) for _ in range(500)]
    coarse = LatencyHistogram(sub_buckets=4)
    fine = LatencyHistogram(sub_buckets=64)
    for value in values:
        coarse.record(value)
        fine.record(value)
    assert (fine.percentile_error_bound(50.0)
            < coarse.percentile_error_bound(50.0))


def test_verify_catches_divergent_data():
    hist = LatencyHistogram()
    for value in (10.0, 20.0, 30.0):
        hist.record(value)
    # A genuinely different stream of the same length.
    assert hist.verify_against_samples([30.0, 60.0, 90.0])
    assert "counts differ" in hist.verify_against_samples([10.0])[0]


def test_exemplars_link_tail_samples_to_traces():
    hist = LatencyHistogram(exemplars_per_bucket=2)
    for i in range(99):
        hist.record(10.0, trace_id=f"fast-{i}")
    hist.record(5000.0, trace_id="slow-1")
    hist.record(6000.0, trace_id="slow-2")
    tail = hist.exemplars(99.0)
    ids = [e["trace_id"] for e in tail]
    assert "slow-2" in ids and "slow-1" in ids
    assert all(not t.startswith("fast") for t in ids)
    # Slowest first.
    assert ids[0] == "slow-2"
    # Bounded per bucket: newest win.
    for i in range(10):
        hist.record(6000.0, trace_id=f"slow-late-{i}")
    ids = [e["trace_id"] for e in hist.exemplars(99.0)]
    assert "slow-2" not in ids
    assert "slow-late-9" in ids


def test_merge_requires_matching_geometry():
    a, b = LatencyHistogram(), LatencyHistogram()
    a.record(10.0, trace_id="a")
    b.record(1000.0, trace_id="b")
    a.merge(b)
    assert a.count == 2
    assert a.max_us == 1000.0
    assert {e["trace_id"] for e in a.exemplars(0.0)} == {"a", "b"}
    with pytest.raises(ObservabilityError):
        a.merge(LatencyHistogram(sub_buckets=8))


def test_summary_and_empty_behavior():
    hist = LatencyHistogram()
    assert hist.summary() == {"p50": 0.0, "p95": 0.0, "p99": 0.0,
                              "mean": 0.0, "max": 0.0, "n": 0}
    assert hist.percentile(50.0) == 0.0
    assert hist.exemplars() == []
    hist.record(5.0)
    hist.record(15.0)
    summary = hist.summary()
    assert summary["n"] == 2
    assert summary["mean"] == 10.0
    assert summary["max"] == 15.0
    assert hist.percentile(0.0) == 5.0
    assert hist.percentile(100.0) == 15.0
    assert hist.to_dict()["count"] == 2
    assert len(hist) == 2


def test_validation():
    with pytest.raises(ObservabilityError):
        LatencyHistogram(min_value_us=0.0)
    with pytest.raises(ObservabilityError):
        LatencyHistogram(sub_buckets=0)
    hist = LatencyHistogram()
    with pytest.raises(ObservabilityError):
        hist.record(-1.0)
    with pytest.raises(ValueError):
        hist.percentile(101.0)
