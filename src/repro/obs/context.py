"""Trace context: the request identity that crosses process boundaries.

A :class:`TraceContext` names one end-to-end request — ``trace_id`` —
and remembers where in the causal tree the carrier currently sits
(``parent_span_id``, a span id in the *originating* tracer).  The
front end mints one per admitted request, stamps it on the
:class:`~repro.service.requests.Request`, and every tracer the request
subsequently touches (the shard workstation's, the fault injector's)
activates it so locally-begun spans inherit the trace identity.

Because each :class:`~repro.obs.spans.SpanTracer` numbers spans
independently, a span is globally named by ``(trace_id, process,
span_id)``; the cross-process parent link is recorded on the *child*
root span as ``remote_parent`` (the frontend span id) rather than as a
local ``parent_id``.  :func:`causal_tree` reassembles the pieces and
checks connectedness — the property the trace-propagation tests and
the exemplar-resolution acceptance check both assert.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence

from ..errors import ObservabilityError
from .spans import Span


@dataclass(frozen=True, slots=True)
class TraceContext:
    """The identity one request carries across process boundaries.

    Attributes:
        trace_id: globally unique id of the end-to-end request
            (deterministic: derived from the service seed + req id).
        parent_span_id: span id, *in the originating tracer*, that a
            remote child tree should hang off (None for a fresh root).
        origin: process name of the tracer owning ``parent_span_id``
            (e.g. ``"frontend"``); empty for a fresh root.
        tenant: the issuing tenant (propagated for attribution).
        request_id: the service-assigned request id.
    """

    trace_id: str
    parent_span_id: Optional[int] = None
    origin: str = ""
    tenant: str = ""
    request_id: int = 0

    def child(self, parent_span_id: int, origin: str) -> "TraceContext":
        """The context a downstream hop should carry: same trace,
        re-parented under span *parent_span_id* of process *origin*."""
        return replace(self, parent_span_id=parent_span_id,
                       origin=origin)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready rendering (the wire format)."""
        out: Dict[str, Any] = {"trace_id": self.trace_id}
        if self.parent_span_id is not None:
            out["parent_span_id"] = self.parent_span_id
        if self.origin:
            out["origin"] = self.origin
        if self.tenant:
            out["tenant"] = self.tenant
        if self.request_id:
            out["request_id"] = self.request_id
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceContext":
        """Parse the wire format; unknown fields are rejected."""
        known = {"trace_id", "parent_span_id", "origin", "tenant",
                 "request_id"}
        unknown = set(data) - known
        if unknown:
            raise ObservabilityError(
                f"unknown trace-context field(s): {sorted(unknown)}")
        trace_id = data.get("trace_id")
        if not isinstance(trace_id, str) or not trace_id:
            raise ObservabilityError(
                "trace context needs a non-empty 'trace_id'")
        return cls(trace_id=trace_id,
                   parent_span_id=data.get("parent_span_id"),
                   origin=str(data.get("origin", "")),
                   tenant=str(data.get("tenant", "")),
                   request_id=int(data.get("request_id", 0)))


def make_trace_id(seed: int, request_id: int) -> str:
    """The deterministic trace id of one request.

    A pure function of (service seed, request id) so same-seed soaks
    produce byte-identical traces and postmortem bundles.
    """
    return f"{seed:x}-{request_id:08d}"


# ----------------------------------------------------------------------
# reassembly: spans from many tracers -> one causal tree per trace_id
# ----------------------------------------------------------------------

def spans_for_trace(spans: Sequence[Span], trace_id: str) -> List[Span]:
    """Every span stamped with *trace_id*, in span-id order."""
    return sorted((s for s in spans
                   if s.attrs.get("trace_id") == trace_id),
                  key=lambda s: (str(s.attrs.get("process", "")),
                                 s.span_id))


def causal_tree(spans: Sequence[Span], trace_id: str) -> Dict[str, Any]:
    """Reassemble (and verify) the causal tree of one trace.

    Spans may come from several tracers; each must carry a ``process``
    attribute (stamped by :meth:`SpanTracer.activate`) so same-numbered
    span ids from different tracers do not collide.  Connectedness
    rules:

    * exactly one global root (no ``parent_id``, no ``remote_parent``);
    * every other span reaches the root via local ``parent_id`` links
      or a ``remote_parent`` hop into another process of the same trace.

    Returns:
        ``{"trace_id", "root", "spans", "processes"}`` on success.

    Raises:
        ObservabilityError: if the trace is empty or disconnected —
            orphan spans are named in the message.
    """
    members = spans_for_trace(spans, trace_id)
    if not members:
        raise ObservabilityError(f"no spans carry trace_id {trace_id!r}")
    by_key: Dict[Any, Span] = {}
    for span in members:
        by_key[(span.attrs.get("process"), span.span_id)] = span
    known_ids = {key for key in by_key}
    roots: List[Span] = []
    orphans: List[str] = []
    for span in members:
        process = span.attrs.get("process")
        if span.parent_id is not None:
            if (process, span.parent_id) not in known_ids:
                orphans.append(f"{process}#{span.span_id} {span.name!r} "
                               f"(local parent #{span.parent_id} missing)")
            continue
        remote = span.attrs.get("remote_parent")
        if remote is None:
            roots.append(span)
            continue
        remote_process = span.attrs.get("remote_process")
        if (remote_process, remote) not in known_ids:
            orphans.append(f"{process}#{span.span_id} {span.name!r} "
                           f"(remote parent {remote_process}#{remote} "
                           f"missing)")
    if len(roots) != 1 or orphans:
        detail = "; ".join(orphans[:5])
        raise ObservabilityError(
            f"trace {trace_id!r} is not one connected tree: "
            f"{len(roots)} root(s), {len(orphans)} orphan(s)"
            + (f" [{detail}]" if detail else ""))
    return {
        "trace_id": trace_id,
        "root": roots[0],
        "spans": members,
        "processes": sorted({str(s.attrs.get("process"))
                             for s in members}),
    }
