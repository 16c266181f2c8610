"""The soak driver: schedules, determinism, fault verdicts, reports."""

import json
import pathlib

import pytest

from repro.errors import ConfigError
from repro.service.soak import (
    SoakConfig,
    build_schedule,
    deterministic_view,
    run_soak,
    strip_runtime,
    tenant_weights,
)


BASELINE = (pathlib.Path(__file__).resolve().parents[2]
            / "benchmarks/results/BENCH_service.json")
#: Per-shard machine counters of the BASELINE config's run.
MACHINE_COUNTERS = (pathlib.Path(__file__).resolve().parent
                    / "fixtures/machine_counters.json")


def small(**overrides):
    defaults = dict(tenants=24, duration_s=4, shards=2, seed=3,
                    incast_period_ticks=10, incast_burst=4)
    defaults.update(overrides)
    return SoakConfig(**defaults)


def test_schedule_is_deterministic():
    config = small()
    assert build_schedule(config) == build_schedule(config)
    assert build_schedule(config) != build_schedule(small(seed=4))


def test_zipf_skews_offered_load_to_head_tenants():
    config = small(tenants=50, duration_s=30, skew="zipf", zipf_s=1.2)
    counts = {}
    for entries in build_schedule(config):
        for tenant, *_ in entries:
            counts[tenant] = counts.get(tenant, 0) + 1
    head = sum(counts.get(f"t{i:04d}", 0) for i in range(5))
    tail = sum(counts.get(f"t{i:04d}", 0) for i in range(45, 50))
    assert head > 3 * max(tail, 1)


def test_uniform_weights_are_flat():
    assert set(tenant_weights(small(skew="uniform"))) == {1.0}
    weights = tenant_weights(small(skew="zipf"))
    assert weights[0] > weights[-1]


def test_incast_bursts_override_the_shard():
    config = small(incast_period_ticks=5, incast_burst=3)
    overrides = [entry for entries in build_schedule(config)
                 for entry in entries if entry[4] is not None]
    assert overrides
    assert all(0 <= entry[4] < config.shards for entry in overrides)
    assert all(entry[3] for entry in overrides)  # incast is hot traffic


def test_soak_report_shape_and_serializability():
    report = run_soak(small())
    assert report["benchmark"] == "service_soak"
    requests = report["requests"]
    assert requests["generated"] == (requests["admitted"]
                                     + requests["rejected"])
    assert report["goodput_mbytes_per_s"] > 0
    assert report["latency_us"]["p99"] >= report["latency_us"]["p50"]
    assert 0 < report["fairness"]["jain_completions"] <= 1
    assert report["trend"]["kind"] == "service_trend"
    assert report["faults"]["verdict"] == "CLEAN"
    assert "vs_faultfree" not in report  # no faults -> no control run
    json.dumps(strip_runtime(report))  # must serialize cleanly
    assert "_service" not in strip_runtime(report)


def test_same_seed_reproduces_the_report():
    config = small(fault_rate=0.1)
    first = deterministic_view(run_soak(config))
    second = deterministic_view(run_soak(config))
    assert json.dumps(first, sort_keys=True) == json.dumps(
        second, sort_keys=True)
    assert "wall" not in first


def test_different_seed_changes_the_report():
    first = deterministic_view(run_soak(small(seed=3)))
    second = deterministic_view(run_soak(small(seed=4)))
    assert json.dumps(first, sort_keys=True) != json.dumps(
        second, sort_keys=True)


def test_faulted_soak_recovers_without_isolation_violations():
    report = run_soak(small(tenants=40, duration_s=8, fault_rate=0.1))
    assert report["faults"]["injected"] > 0
    assert report["faults"]["verdict"] in ("RECOVERED", "CLEAN")
    assert report["requests"]["wrong_transfers"] == 0
    assert report["faults"]["sweep_problems"] == []
    assert report["vs_faultfree"]["goodput_ratio"] >= 0.9


def test_fault_plan_file_format_is_accepted():
    plan = {"seed": 2, "rules": [
        {"kind": "drop", "target": "completion", "probability": 0.2}]}
    report = run_soak(small(fault_plan=plan))
    assert report["faults"]["enabled"]
    assert report["faults"]["injected"] > 0
    assert report["config"]["fault_plan"] == plan


def test_no_control_run_skips_the_comparison():
    report = run_soak(small(fault_rate=0.1, control_run=False))
    assert "vs_faultfree" not in report
    assert report["faults"]["verdict"] in ("RECOVERED", "DEGRADED")


def test_spans_enable_the_fleet_trace():
    report = run_soak(small(tenants=8, duration_s=2, spans=True))
    service = report["_service"]
    trace = service.fleet_trace()
    assert trace["traceEvents"]
    pids = {event["pid"] for event in trace["traceEvents"]}
    # Front end is process 1, then one process per shard.
    assert pids == {1, 2, 3}
    # Merged ordering is deterministic: metadata first, then
    # timestamp-ordered with the stable global tie-break.
    order = [(e["ph"] == "M", e.get("ts", 0.0))
             for e in trace["traceEvents"]]
    assert order == sorted(order, key=lambda item: (not item[0], item[1]))


def test_config_validation():
    with pytest.raises(ConfigError):
        SoakConfig(tenants=0)
    with pytest.raises(ConfigError):
        SoakConfig(duration_s=0)
    with pytest.raises(ConfigError):
        SoakConfig(skew="bogus")
    with pytest.raises(ConfigError):
        SoakConfig(rate=0.0)


@pytest.fixture(scope="module")
def baseline_run():
    """The committed baseline (wall clock dropped) and one rerun of its
    config, shared so the suite runs that soak once."""
    committed = json.loads(BASELINE.read_text())
    committed.pop("wall")
    return committed, run_soak(SoakConfig(**committed["config"]))


def test_committed_baseline_reproduces_exactly(baseline_run):
    """Rerunning the committed baseline's config reproduces every
    field of BENCH_service.json except the wall clock."""
    committed, report = baseline_run
    assert json.loads(json.dumps(deterministic_view(report))) == committed


def machine_counters(service):
    """Each shard machine's own counters, JSON-ready, registries in
    their snapshot order."""
    out = []
    for shard in service.shards:
        ws = shard.ws
        wb = ws.write_buffer
        out.append({
            "cpu": ws.cpu.stats.snapshot(),
            "bus": ws.bus.stats.snapshot(),
            "tlb": {"hits": ws.tlb.hits, "misses": ws.tlb.misses,
                    "flushes": ws.tlb.flushes},
            "write_buffer": {"posted": wb.stores_posted,
                             "drains": wb.drains,
                             "collapsed": wb.stores_collapsed},
            "sim": {"events_fired": ws.sim.events_fired,
                    "now": ws.sim.now},
        })
    return out


def test_baseline_machine_counters_are_unchanged(baseline_run):
    """A host-side speed-up must leave every simulated statistic alone:
    the baseline run's CPU and bus counters (same names, same order),
    TLB, write-buffer and simulator figures equal the fixture recorded
    from the code before the CPU hot path was trimmed."""
    _, report = baseline_run
    expected = json.loads(MACHINE_COUNTERS.read_text())
    actual = machine_counters(report["_service"])
    assert actual == expected
    for got, want in zip(actual, expected):
        assert list(got["cpu"]) == list(want["cpu"])
        assert list(got["bus"]) == list(want["bus"])
