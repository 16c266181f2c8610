"""Smoke tests: ``repro trace`` / ``repro metrics`` end to end.

The acceptance check for the observability layer: running the Fig. 8
two-adversary workload through the CLI must produce a schema-valid
Chrome trace in which every DMA attempt is one complete causal span
tree — initiate -> shadow stores/loads -> transfer -> completion or
rejection — tagged with its outcome.
"""

import collections
import json

import pytest

from repro.cli import main
from repro.obs.export import (
    children_of,
    span_tree_roots,
    validate_chrome_trace,
)
from repro.obs.runs import traced_adversary_run

ROOT_NAMES = {"dma", "dma.reliable", "dma.initiate"}

#: Spans of the seeded run that each stand for one engine, API or fault
#: event (the same counts CI asserts on the exported trace).
FIG8_EVENT_COUNTS = {
    "dma.shadow_store": 33, "dma.shadow_load": 39, "dma.transfer": 8,
    "dma.rejected": 1, "dma.fallback": 1, "fault.store.drop": 1,
    "fault.load.drop": 6,
}


@pytest.fixture(scope="module")
def run():
    return traced_adversary_run()


def test_trace_chrome_export_is_schema_valid(tmp_path, capsys):
    path = tmp_path / "trace.json"
    code = main(["trace", "--export", "chrome", "--output", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "wrote" in out and "perfetto" in out
    trace = json.loads(path.read_text())
    assert validate_chrome_trace(trace) == []
    assert {e["ph"] for e in trace["traceEvents"]} == {"M", "X", "C"}
    # Every event the run records is a span: the shadow accesses, the
    # transfers, and the point events (rejection, fallback, faults).
    spans = collections.Counter(e["name"] for e in trace["traceEvents"]
                                if e["ph"] == "X")
    assert {name: spans[name] for name in FIG8_EVENT_COUNTS} \
        == FIG8_EVENT_COUNTS
    # The three user-level retries are the hardened spans' extra attempts.
    assert sum(e["args"]["attempts"] - 1 for e in trace["traceEvents"]
               if e["name"] == "dma.reliable") == 3


def test_trace_summary_reports_every_outcome(capsys):
    code = main(["trace", "--export", "summary"])
    out = capsys.readouterr().out
    assert code == 0
    for outcome in ("completed", "aborted", "retried", "fell-back"):
        assert outcome in out


def test_trace_jsonl_export(tmp_path, capsys):
    path = tmp_path / "spans.jsonl"
    code = main(["trace", "--export", "jsonl", "--output", str(path)])
    assert code == 0
    capsys.readouterr()
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines and all("id" in line and "attrs" in line for line in lines)


def test_metrics_command_prints_series(capsys):
    code = main(["metrics"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Metric time series" in out
    assert "engine.bytes_moved" in out


def test_every_dma_attempt_is_one_causal_tree(run):
    spans = run.spans()
    roots = [s for s in span_tree_roots(spans) if s.name in ROOT_NAMES]
    # 6 completed + 1 aborted + 1 retried + 1 fell-back.
    assert len(roots) == 9
    outcomes = sorted(s.attrs.get("outcome") for s in roots)
    assert outcomes == (["aborted"] + ["completed"] * 6
                        + ["fell-back", "retried"])
    for root in roots:
        assert root.closed
        assert root.track.startswith("proc")


def test_completed_tree_has_full_causal_chain(run):
    spans = run.spans()
    completed = [s for s in span_tree_roots(spans)
                 if s.name == "dma" and s.attrs.get("outcome") == "completed"]
    tree = completed[0]
    initiate = children_of(spans, tree)
    assert [s.name for s in initiate] == ["dma.initiate"]
    inner = children_of(spans, initiate[0])
    names = [s.name for s in inner]
    # The repeated5 pattern is five alternating shadow accesses, each
    # carrying the recognizer state transition it caused.
    assert len([n for n in names
                if n in ("dma.shadow_store", "dma.shadow_load")]) == 5
    store = next(s for s in inner if s.name == "dma.shadow_store")
    assert "state_from" in store.attrs and "state_to" in store.attrs
    assert store.attrs["protocol"] == "repeated5"
    # The transfer span hangs off the access that completed the pattern
    # and rides the engine track until the data lands.
    last = inner[-1]
    assert last.attrs["state_to"] == "idle"   # pattern consumed
    transfer = next(s for s in children_of(spans, last)
                    if s.name == "dma.transfer")
    assert transfer.track == "engine"
    assert transfer.attrs.get("outcome") == "completed"


def test_fell_back_tree_degrades_to_kernel(run):
    spans = run.spans()
    fell_back = next(s for s in span_tree_roots(spans)
                     if s.attrs.get("outcome") == "fell-back")
    names = [s.name for s in children_of(spans, fell_back)]
    assert "dma.fallback" in names
    assert "dma.backoff" in names
    fallback = next(s for s in children_of(spans, fell_back)
                    if s.name == "dma.fallback")
    kernel_initiate = children_of(spans, fallback)
    assert any(s.attrs.get("via") == "kernel" for s in kernel_initiate)


def test_fault_injections_appear_as_spans(run):
    spans = run.spans()
    faults = [s for s in spans if s.name.startswith("fault.")]
    assert any(s.name == "fault.store.drop" for s in faults)
    assert any(s.name == "fault.load.drop" for s in faults)
    assert all(s.track == "faults" for s in faults)
