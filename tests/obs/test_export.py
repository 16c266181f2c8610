"""Unit tests for the Chrome-trace / JSONL / summary-table exporters."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs.export import (
    children_of,
    chrome_trace,
    ensure_valid_chrome_trace,
    span_summary_table,
    span_tree_roots,
    spans_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import MetricsSampler
from repro.obs.spans import SpanTracer


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def make_spans():
    clock = FakeClock()
    tracer = SpanTracer(clock=clock, enabled=True)
    root = tracer.begin("dma", track="proc1", method="repeated5")
    child = tracer.begin("dma.initiate", track="proc1")
    clock.now = 1_000_000
    tracer.end(child, outcome="completed")
    clock.now = 2_000_000
    tracer.end(root, outcome="completed")
    open_span = tracer.begin("dma.transfer", track="engine", stack=False)
    return tracer.all_spans(), root, child, open_span


def test_chrome_trace_validates_and_has_metadata():
    spans, _, _, _ = make_spans()
    trace = chrome_trace(spans, process_name="unit")
    assert validate_chrome_trace(trace) == []
    phases = [e["ph"] for e in trace["traceEvents"]]
    assert "M" in phases and "X" in phases
    names = {e["args"]["name"] for e in trace["traceEvents"]
             if e["ph"] == "M" and e["name"] == "thread_name"}
    assert names == {"proc1", "engine"}


def test_chrome_trace_span_fields():
    spans, root, child, open_span = make_spans()
    trace = chrome_trace(spans)
    complete = {e["args"]["span_id"]: e for e in trace["traceEvents"]
                if e["ph"] == "X"}
    assert complete[root.span_id]["dur"] == 2.0        # us
    assert complete[child.span_id]["args"]["parent_id"] == root.span_id
    assert complete[open_span.span_id]["args"]["open"] is True
    assert complete[open_span.span_id]["dur"] == 0


def test_chrome_trace_includes_events_and_counters():
    """Point events are zero-duration spans: they export as ``X``
    events with ``dur == 0``, next to the metric counters."""
    spans, _, _, _ = make_spans()
    clock = FakeClock()
    tracer = SpanTracer(clock=clock, enabled=True)
    clock.now = 500_000
    tracer.instant("fault.store.drop", track="faults", paddr=64)
    sampler = MetricsSampler(clock, sources=[lambda: {"bytes": 7.0}],
                             interval=1)
    sampler.poll()
    trace = chrome_trace(spans + tracer.finished(), metrics=sampler)
    assert validate_chrome_trace(trace) == []
    assert {e["ph"] for e in trace["traceEvents"]} == {"M", "X", "C"}
    (point,) = [e for e in trace["traceEvents"]
                if e["name"] == "fault.store.drop"]
    assert point["ph"] == "X" and point["dur"] == 0
    assert point["ts"] == 0.5 and point["args"]["paddr"] == 64
    counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
    assert counters[0]["name"] == "bytes"
    assert counters[0]["args"]["value"] == 7.0


def test_validate_rejects_malformed():
    assert validate_chrome_trace([]) != []
    assert validate_chrome_trace({"traceEvents": "nope"}) != []
    bad_phase = {"traceEvents": [{"ph": "Z", "name": "x", "pid": 1}]}
    assert any("unknown phase" in p
               for p in validate_chrome_trace(bad_phase))
    bad_ts = {"traceEvents": [
        {"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": -1, "dur": 0}]}
    assert any("ts" in p for p in validate_chrome_trace(bad_ts))
    with pytest.raises(ObservabilityError):
        ensure_valid_chrome_trace(bad_phase)


def test_write_chrome_trace_roundtrips(tmp_path):
    spans, _, _, _ = make_spans()
    path = tmp_path / "trace.json"
    trace = write_chrome_trace(path, spans)
    loaded = json.loads(path.read_text())
    assert loaded == trace
    assert validate_chrome_trace(loaded) == []


def test_spans_jsonl_one_line_per_span():
    spans, root, _, _ = make_spans()
    text = spans_jsonl(spans)
    lines = [json.loads(line) for line in text.splitlines()]
    assert len(lines) == len(spans)
    assert lines[0]["id"] == root.span_id
    assert lines[0]["attrs"]["outcome"] == "completed"
    assert spans_jsonl([]) == ""


def test_span_tree_navigation():
    spans, root, child, open_span = make_spans()
    roots = span_tree_roots(spans)
    assert [s.span_id for s in roots] == [root.span_id, open_span.span_id]
    assert [s.span_id for s in children_of(spans, root)] == [child.span_id]


def test_span_summary_table_groups_by_protocol_outcome():
    spans, _, _, _ = make_spans()
    text = span_summary_table(spans).render()
    assert "repeated5" in text
    assert "completed" in text
    assert "p95" in text
    filtered = span_summary_table(spans, name="dma.initiate").render()
    assert "dma.initiate" in filtered
