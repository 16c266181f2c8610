"""Exporters: Chrome trace-event JSON, JSONL dumps, percentile tables.

Three ways out of the observability layer:

* :func:`chrome_trace` — the Chrome trace-event format (JSON object
  format with a ``traceEvents`` array), loadable in Perfetto and
  ``chrome://tracing``.  Spans become ``X`` (complete) events — point
  events such as faults, rejections, context switches and atomics are
  zero-duration spans — metric samples become ``C`` (counter) events,
  and every distinct track gets its own named thread via ``M``
  (metadata) events — one lane per CPU / process / engine.
* :func:`spans_jsonl` — one JSON object per span, machine-greppable.
* :func:`span_summary_table` — a terminal table of span durations by
  (protocol, outcome) with p50/p95/p99 percentiles.

:func:`validate_chrome_trace` checks the structural rules Perfetto's
JSON importer enforces, so CI can gate exports without a browser.
"""

from __future__ import annotations

import json
from typing import (TYPE_CHECKING, Any, Dict, Iterable, List, Optional,
                    Sequence, Tuple)

from ..errors import ObservabilityError
from ..sim.stats import percentile
from ..units import to_us
from .metrics import MetricsSampler
from .spans import Span

if TYPE_CHECKING:  # repro.analysis imports repro.core, which imports us
    from ..analysis.report import Table

#: Event phases the validator accepts (the subset we emit, plus begin/
#: end pairs so hand-written traces validate too).
_KNOWN_PHASES = frozenset({"X", "B", "E", "i", "I", "C", "M"})


def _track_ids(tracks: Iterable[str]) -> Dict[str, int]:
    """Stable track name -> tid mapping (sorted, 1-based)."""
    return {name: tid for tid, name in enumerate(sorted(set(tracks)), 1)}


def chrome_trace(spans: Sequence[Span],
                 metrics: Optional[MetricsSampler] = None,
                 process_name: str = "repro",
                 pid: int = 1) -> Dict[str, Any]:
    """Build a Chrome trace-event JSON object from observability data.

    Args:
        spans: finished (and possibly still-open) spans; open spans are
            exported with zero duration and ``"open": true`` in args.
        metrics: optional sampler whose series become counter events.
        process_name: name of the single exported process.
        pid: process id used for every event.
    """
    tids = _track_ids(span.track for span in spans)

    out: List[Dict[str, Any]] = [{
        "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
        "args": {"name": process_name},
    }]
    for track, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        out.append({"ph": "M", "name": "thread_name", "pid": pid,
                    "tid": tid, "args": {"name": track}})

    for span in sorted(spans, key=lambda s: (s.start, s.span_id)):
        args = dict(span.attrs)
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if not span.closed:
            args["open"] = True
        out.append({
            "ph": "X",
            "name": span.name,
            "cat": str(args.get("cat", "span")),
            "ts": to_us(span.start),
            "dur": to_us(span.duration),
            "pid": pid,
            "tid": tids[span.track],
            "args": args,
        })

    if metrics is not None:
        for when, sample in metrics.samples:
            for name, value in sorted(sample.items()):
                out.append({
                    "ph": "C",
                    "name": name,
                    "ts": to_us(when),
                    "pid": pid,
                    "args": {"value": value},
                })

    return {"traceEvents": out, "displayTimeUnit": "ns"}


def validate_chrome_trace(trace: Any) -> List[str]:
    """Structural validation of a Chrome trace-event object.

    Returns:
        A list of problems (empty means the trace is one Perfetto's
        JSON importer accepts): top-level shape, required per-phase
        fields, numeric non-negative timestamps/durations, and overall
        JSON serializability.
    """
    problems: List[str] = []
    if not isinstance(trace, dict):
        return [f"top level must be an object, got {type(trace).__name__}"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _KNOWN_PHASES:
            problems.append(f"{where}: unknown phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            problems.append(f"{where}: missing or empty name")
        if not isinstance(event.get("pid"), int):
            problems.append(f"{where}: pid must be an int")
        if phase != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"{where}: ts must be a non-negative number")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: dur must be a non-negative number")
        if phase in ("X", "B", "E", "i", "I"):
            if not isinstance(event.get("tid"), int):
                problems.append(f"{where}: tid must be an int")
    try:
        json.dumps(trace)
    except (TypeError, ValueError) as exc:
        problems.append(f"not JSON-serializable: {exc}")
    return problems


def ensure_valid_chrome_trace(trace: Any) -> None:
    """Raise :class:`ObservabilityError` if the trace fails validation."""
    problems = validate_chrome_trace(trace)
    if problems:
        shown = "; ".join(problems[:5])
        raise ObservabilityError(
            f"invalid Chrome trace ({len(problems)} problem(s)): {shown}")


def write_chrome_trace(path: Any, spans: Sequence[Span],
                       metrics: Optional[MetricsSampler] = None,
                       **kwargs: Any) -> Dict[str, Any]:
    """Build, validate, and write a Chrome trace; returns the object."""
    from .writer import write_json

    trace = chrome_trace(spans, metrics=metrics, **kwargs)
    ensure_valid_chrome_trace(trace)
    write_json(path, trace)
    return trace


def spans_jsonl(spans: Sequence[Span]) -> str:
    """One JSON object per line, one line per span, in span-id order."""
    ordered = sorted(spans, key=lambda s: s.span_id)
    return "\n".join(json.dumps(span.to_dict(), sort_keys=True)
                     for span in ordered) + ("\n" if ordered else "")


def span_tree_roots(spans: Sequence[Span]) -> List[Span]:
    """The root spans (no parent) in start order."""
    return sorted((s for s in spans if s.parent_id is None),
                  key=lambda s: (s.start, s.span_id))


def children_of(spans: Sequence[Span], parent: Span) -> List[Span]:
    """Direct children of *parent*, in start order."""
    return sorted((s for s in spans if s.parent_id == parent.span_id),
                  key=lambda s: (s.start, s.span_id))


def _group_key(span: Span) -> Tuple[str, str]:
    protocol = str(span.attrs.get("protocol",
                                  span.attrs.get("method", span.name)))
    outcome = str(span.attrs.get("outcome", "-"))
    return protocol, outcome


def span_summary_table(spans: Sequence[Span],
                       name: Optional[str] = None,
                       percentiles: Sequence[float] = (50, 95, 99)
                       ) -> "Table":
    """Span durations by (protocol, outcome) with percentile columns.

    Args:
        spans: finished spans to summarize (open spans are skipped).
        name: only include spans with this name (None = all).
        percentiles: percentile columns to render.
    """
    from ..analysis.report import Table

    groups: Dict[Tuple[str, str], List[int]] = {}
    for span in spans:
        if not span.closed:
            continue
        if name is not None and span.name != name:
            continue
        groups.setdefault(_group_key(span), []).append(span.duration)
    table = Table("Span durations by (protocol, outcome)",
                  ["protocol", "outcome", "count", "mean (us)"]
                  + [f"p{p:g} (us)" for p in percentiles])
    for (protocol, outcome), durations in sorted(groups.items()):
        table.add_row(protocol, outcome, len(durations),
                      f"{to_us(sum(durations) / len(durations)):.3f}",
                      *(f"{to_us(percentile(durations, p)):.3f}"
                        for p in percentiles))
    return table
