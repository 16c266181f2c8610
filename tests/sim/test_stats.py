"""Unit tests for counters and latency statistics."""

import pytest

from repro.sim.stats import (
    Counter,
    LatencyStat,
    StatRegistry,
    merge_snapshots,
    percentile,
)
from repro.units import us


def test_counter_add_and_reset():
    counter = Counter("x")
    counter.add()
    counter.add(4)
    assert counter.value == 5
    counter.reset()
    assert counter.value == 0


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        Counter("x").add(-1)


def test_latency_mean():
    stat = LatencyStat("lat")
    for sample in (us(1), us(2), us(3)):
        stat.record(sample)
    assert stat.mean_us == pytest.approx(2.0)
    assert stat.count == 3


def test_latency_min_max():
    stat = LatencyStat("lat")
    stat.record(500)
    stat.record(100)
    stat.record(900)
    assert stat.min == 100
    assert stat.max == 900


def test_latency_rejects_negative_sample():
    with pytest.raises(ValueError):
        LatencyStat("lat").record(-1)


def test_latency_stat_keeps_only_aggregates():
    """No quantile is ever fabricated from count/sum/min/max."""
    stat = LatencyStat("lat")
    for sample in (100, 200, 600):
        stat.record(sample)
    assert (stat.count, stat.total, stat.min, stat.max) == (3, 900, 100, 600)
    assert not hasattr(stat, "percentile")


def test_percentile_empty_stat_is_zero():
    assert percentile([], 50) == 0
    assert percentile([], 99) == 0


def test_percentile_single_aggregate_sample():
    assert percentile([10], 50) == 10
    assert percentile([10], 99) == 10


def test_percentile_median():
    samples = [10, 20, 30, 40, 50]
    assert percentile(samples, 50) == 30
    assert percentile(samples, 0) == 10
    assert percentile(samples, 100) == 50


def test_percentile_interpolates():
    assert percentile([0, 100], 25) == 25
    assert percentile([100, 0], 25) == 25  # input order does not matter


def test_percentile_bounds_checked_without_samples():
    with pytest.raises(ValueError):
        percentile([], -1)
    with pytest.raises(ValueError):
        percentile([], 101)


def test_percentile_bounds_checked():
    with pytest.raises(ValueError):
        percentile([1], 101)
    with pytest.raises(ValueError):
        percentile([1], -1)


def test_empty_stat_mean_is_zero():
    assert LatencyStat("lat").mean == 0.0


def test_registry_reuses_instances():
    registry = StatRegistry("dev")
    assert registry.counter("a") is registry.counter("a")
    assert registry.latency("l") is registry.latency("l")


def test_registry_reset_clears_all():
    registry = StatRegistry()
    registry.counter("a").add(3)
    registry.latency("l").record(100)
    registry.reset()
    assert registry.counter("a").value == 0
    assert registry.latency("l").count == 0


def test_registry_snapshot_qualifies_names():
    registry = StatRegistry("cpu0")
    registry.counter("instructions").add(7)
    snap = registry.snapshot()
    assert snap["cpu0.instructions"] == 7.0


def test_merge_snapshots_later_wins():
    merged = merge_snapshots([{"a": 1.0, "b": 2.0}, {"b": 3.0}])
    assert merged == {"a": 1.0, "b": 3.0}
