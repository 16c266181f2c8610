"""The flight recorder: always-on rings + seed-reproducible postmortems.

Every :class:`~repro.service.shard.ServiceShard` carries one
:class:`FlightRecorder`.  It is *always on* and always bounded: a ring
of recent completion summaries lives here, while the shard's own
bounded collectors — the span tracer's finished list (point events such
as injected faults included, as zero-duration spans) and the metrics
sampler — serve as the span/sample rings (the recorder reads their
tails at dump time rather than copying per request, so steady-state
cost is one ring append per completion).

When something goes wrong — a ``wrong-data`` completion, a wrong-page
sweep hit, an UNSAFE soak verdict, an SLO breach — :meth:`bundle`
freezes the evidence into a **postmortem bundle**: the offending
request ids, the last-N spans as a schema-valid Chrome trace, the
recent metrics window, and the active fault rules.  Everything in a
bundle is simulated-time data, so the same seed reproduces the same
bundle byte for byte — ``repro postmortem`` exploits that to re-derive
the evidence for any reported incident.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional

from .export import chrome_trace, ensure_valid_chrome_trace

#: Bundle trigger reasons (the contract with the service layer).
REASON_WRONG_DATA = "wrong-data"
REASON_WRONG_PAGE = "wrong-page"
REASON_UNSAFE_VERDICT = "unsafe-verdict"
REASON_SLO_BREACH = "slo-breach"


class FlightRecorder:
    """Bounded incident evidence for one shard (or process).

    Args:
        process: name stamped on bundles (e.g. ``"shard2"``).
        capacity: completion summaries retained.
        span_window: spans exported per bundle (the last N finished).
        sample_window: metric samples exported per bundle.
        max_bundles: bundles retained (oldest dropped) — incidents can
            cascade, memory must not.
    """

    def __init__(self, process: str, capacity: int = 256,
                 span_window: int = 400, sample_window: int = 64,
                 max_bundles: int = 8) -> None:
        self.process = process
        self.span_window = span_window
        self.sample_window = sample_window
        self.max_bundles = max_bundles
        self.completions: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self.bundles: List[Dict[str, Any]] = []
        self.dropped_bundles = 0

    # ------------------------------------------------------------------
    # steady-state ingest
    # ------------------------------------------------------------------

    def note(self, completion: Any) -> None:
        """Append one completion summary to the ring (cheap, always on)."""
        summary = {
            "req_id": completion.request.req_id,
            "tenant": completion.request.tenant,
            "kind": completion.request.kind,
            "outcome": completion.outcome,
            "ok": completion.ok,
            "attempts": completion.attempts,
            "latency_us": round(completion.latency_us, 3),
        }
        trace = getattr(completion.request, "trace", None)
        if trace is not None:
            summary["trace_id"] = trace.trace_id
        self.completions.append(summary)

    # ------------------------------------------------------------------
    # incident dump
    # ------------------------------------------------------------------

    def bundle(self, reason: str, *, ws: Any, seed: int, tick: int,
               offending: Optional[List[Dict[str, Any]]] = None,
               fault_plan: Optional[Dict[str, Any]] = None,
               counters: Optional[Dict[str, int]] = None,
               detail: str = "") -> Dict[str, Any]:
        """Freeze a postmortem bundle from the current rings.

        Args:
            reason: one of the ``REASON_*`` trigger constants.
            ws: the shard's workstation (span and metrics rings).
            seed: the *service* seed — re-running the same config with
                it reproduces this bundle exactly.
            tick: service tick at dump time.
            offending: request summaries that triggered the dump.
            fault_plan: the active fault rules, if any.
            counters: shard counter snapshot at dump time.
            detail: free-form one-line context (e.g. the SLO breach).
        """
        spans = ws.spans.finished()[-self.span_window:]
        trace = chrome_trace(spans, process_name=self.process, pid=1)
        ensure_valid_chrome_trace(trace)
        samples = [{"when_ps": when, "values": dict(sample)}
                   for when, sample in
                   ws.metrics.samples[-self.sample_window:]] \
            if ws.metrics.enabled else []
        bundle: Dict[str, Any] = {
            "kind": "postmortem",
            "reason": reason,
            "detail": detail,
            "process": self.process,
            "seed": seed,
            "tick": tick,
            "offending": list(offending or []),
            "recent_completions": list(self.completions),
            "trace": trace,
            "metrics_window": samples,
            "fault_plan": fault_plan,
            "counters": dict(counters or {}),
        }
        self.bundles.append(bundle)
        if len(self.bundles) > self.max_bundles:
            del self.bundles[0]
            self.dropped_bundles += 1
        return bundle

    def __len__(self) -> int:
        return len(self.completions)
