"""Hierarchical causal spans over simulated time.

A :class:`Span` is an interval of *simulated* time with a name, a track
(the CPU / process / engine lane it renders on), a parent link, and a
free-form attribute dict.  A :class:`SpanTracer` hands them out and
keeps the finished list; the exporters in :mod:`repro.obs.export` turn
that list into Chrome trace-event JSON (Perfetto / ``chrome://tracing``),
JSONL dumps, or a terminal percentile table.

Two usage styles coexist, mirroring the simulator's two styles of
progress:

* **Synchronous code** (a DMA initiation running on the CPU) uses the
  implicit *current-span stack*: :meth:`SpanTracer.begin` pushes, the
  matching :meth:`SpanTracer.end` pops, and nested begins parent
  automatically.  Unbalanced pairs raise :class:`ObservabilityError`.
* **Background activity** (a DMA transfer completing later) begins a
  span with ``stack=False``; it inherits the current parent but never
  joins the stack, so it can end at any later simulated time without
  breaking the synchronous nesting.

Point events (an injected fault, a rejected start, a context switch)
are :meth:`SpanTracer.instant` spans that begin and end at one
timestamp, so one tracer is the machine's only event recorder.

Cost when disabled: :meth:`begin` is one attribute test plus a constant
return of :data:`NULL_SPAN`; hot call sites additionally guard with
``if tracer.enabled:`` so tracing compiles down to a single branch.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..errors import ObservabilityError
from ..units import Time


class Span:
    """One causal interval of simulated time.

    Attributes:
        span_id: unique id within the owning tracer (1-based).
        parent_id: id of the enclosing span, or None for a root.
        name: what this span covers (e.g. ``"dma.initiate"``).
        track: rendering lane (e.g. ``"proc1"``, ``"engine"``).
        start: begin timestamp in simulated ps.
        end: end timestamp, or None while still open.
        attrs: free-form attributes (method, pid, outcome, ...).
    """

    __slots__ = ("span_id", "parent_id", "name", "track", "start", "end",
                 "attrs")

    def __init__(self, span_id: int, parent_id: Optional[int], name: str,
                 track: str, start: Time,
                 attrs: Optional[Dict[str, Any]] = None) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.track = track
        self.start = start
        self.end: Optional[Time] = None
        self.attrs: Dict[str, Any] = attrs if attrs is not None else {}

    @property
    def closed(self) -> bool:
        """Whether the span has ended."""
        return self.end is not None

    @property
    def duration(self) -> Time:
        """Simulated duration (0 while the span is still open)."""
        return 0 if self.end is None else self.end - self.start

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready rendering (used by the JSONL exporter)."""
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "track": self.track,
            "start_ps": self.start,
            "end_ps": self.end,
            "dur_ps": self.duration,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:
        state = f"end={self.end}" if self.closed else "open"
        return (f"Span(#{self.span_id} {self.name!r} track={self.track!r} "
                f"start={self.start} {state})")


class _NullSpan(Span):
    """The span handed out by a disabled tracer: every method no-ops."""

    def __init__(self) -> None:
        super().__init__(0, None, "", "", 0, {})

    def set(self, **attrs: Any) -> "Span":
        return self


#: Singleton no-op span returned by a disabled tracer.
NULL_SPAN = _NullSpan()


class SpanTracer:
    """Creates, nests, and collects :class:`Span` objects.

    Args:
        clock: zero-argument callable returning the current simulated
            time (e.g. ``sim.time_source()``).
        enabled: when False (the default) :meth:`begin` returns
            :data:`NULL_SPAN` after a single branch and nothing is
            recorded.
        max_spans: optional cap on retained *finished* spans; the oldest
            are dropped once exceeded (open spans are never dropped).
    """

    def __init__(self, clock: Callable[[], Time], enabled: bool = False,
                 max_spans: Optional[int] = None) -> None:
        self.enabled = enabled
        self.max_spans = max_spans
        self._clock = clock
        self._next_id = 1
        self._finished: List[Span] = []
        self._open: Dict[int, Span] = {}
        self._stack: List[int] = []
        self.dropped = 0
        self._context: Optional[Any] = None
        self._process: str = ""

    # ------------------------------------------------------------------
    # begin / end
    # ------------------------------------------------------------------

    def begin(self, name: str, track: str = "main",
              parent: Optional[Span] = None, stack: bool = True,
              **attrs: Any) -> Span:
        """Open a span at the current simulated time.

        Args:
            name: span name.
            track: rendering lane.
            parent: explicit parent span; by default the top of the
                current-span stack (if any) is the parent.
            stack: join the implicit current-span stack.  Pass False for
                background spans that end out of nesting order (e.g. a
                DMA transfer completing after its initiator returned).
        """
        if not self.enabled:
            return NULL_SPAN
        if parent is not None:
            parent_id: Optional[int] = parent.span_id or None
        elif self._stack:
            parent_id = self._stack[-1]
        else:
            parent_id = None
        span = Span(self._next_id, parent_id, name, track, self._clock(),
                    attrs if attrs else None)
        self._next_id += 1
        context = self._context
        if context is not None:
            span.attrs.setdefault("trace_id", context.trace_id)
            span.attrs.setdefault("process", self._process)
            if parent_id is None:
                # This span roots the trace's subtree in this tracer —
                # record the cross-process parent link on it.
                if context.parent_span_id is not None:
                    span.attrs.setdefault("remote_parent",
                                          context.parent_span_id)
                    if context.origin:
                        span.attrs.setdefault("remote_process",
                                              context.origin)
                if context.tenant:
                    span.attrs.setdefault("tenant", context.tenant)
                if context.request_id:
                    span.attrs.setdefault("request_id",
                                          context.request_id)
        self._open[span.span_id] = span
        if stack:
            self._stack.append(span.span_id)
        return span

    def end(self, span: Span, **attrs: Any) -> None:
        """Close *span* at the current simulated time.

        Raises:
            ObservabilityError: if the span is not open (never begun
                here, or already ended), or if it sits below the top of
                the current-span stack — i.e. an enclosing begin/end
                pair was left unbalanced.
        """
        if span is NULL_SPAN:
            return
        if self._open.pop(span.span_id, None) is None:
            raise ObservabilityError(
                f"span #{span.span_id} {span.name!r} is not open "
                f"(double end, or never begun by this tracer)")
        if self._stack and self._stack[-1] == span.span_id:
            self._stack.pop()
        elif span.span_id in self._stack:
            self._stack.remove(span.span_id)
            raise ObservabilityError(
                f"span #{span.span_id} {span.name!r} ended while "
                f"{len(self._stack)} inner span(s) were still open — "
                f"unbalanced begin/end pairing")
        if attrs:
            span.attrs.update(attrs)
        span.end = self._clock()
        self._finished.append(span)
        if self.max_spans is not None and len(self._finished) > self.max_spans:
            del self._finished[0]
            self.dropped += 1

    def instant(self, name: str, track: str = "main", **attrs: Any) -> None:
        """Record a point event: a span that begins and ends at the
        current simulated time (a fault, a rejection, a context
        switch)."""
        if self.enabled:
            self.end(self.begin(name, track=track, **attrs))

    @contextmanager
    def span(self, name: str, track: str = "main",
             **attrs: Any) -> Iterator[Span]:
        """Context manager: ``with tracer.span("phase") as sp: ...``."""
        sp = self.begin(name, track=track, **attrs)
        try:
            yield sp
        finally:
            self.end(sp)

    @contextmanager
    def activate(self, context: Optional[Any],
                 process: str = "main") -> Iterator[None]:
        """Stamp a :class:`~repro.obs.context.TraceContext` onto every
        span begun inside the block.

        All such spans get ``trace_id`` and ``process`` attributes;
        spans that root a local subtree (no local parent) additionally
        get the cross-process ``remote_parent`` / ``remote_process``
        link plus tenant/request attribution — enough for
        :func:`~repro.obs.context.causal_tree` to reassemble one
        connected tree per trace across tracers.  Activations nest;
        a ``None`` context or a disabled tracer makes this a no-op.
        """
        if not self.enabled or context is None:
            yield
            return
        previous = (self._context, self._process)
        self._context, self._process = context, process
        try:
            yield
        finally:
            self._context, self._process = previous

    @property
    def context(self) -> Optional[Any]:
        """The trace context of the innermost active activation."""
        return self._context

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def current(self) -> Optional[Span]:
        """The innermost open stacked span, or None."""
        if not self._stack:
            return None
        return self._open.get(self._stack[-1])

    def finished(self) -> List[Span]:
        """All closed spans, in closing order."""
        return list(self._finished)

    def open_spans(self) -> List[Span]:
        """Spans begun but not yet ended, in begin order."""
        return sorted(self._open.values(), key=lambda s: s.span_id)

    def all_spans(self) -> List[Span]:
        """Closed spans plus still-open ones (open last), by span id."""
        return sorted(self._finished + list(self._open.values()),
                      key=lambda s: s.span_id)

    def require_balanced(self) -> None:
        """Raise unless every begun span has been ended.

        Raises:
            ObservabilityError: naming the open spans.
        """
        if self._open:
            names = ", ".join(f"#{s.span_id} {s.name}"
                              for s in self.open_spans())
            raise ObservabilityError(
                f"{len(self._open)} span(s) still open: {names}")

    def __len__(self) -> int:
        return len(self._finished)

    def clear(self) -> None:
        """Drop every span (open and finished) and reset the stack."""
        self._finished.clear()
        self._open.clear()
        self._stack.clear()
        self.dropped = 0

    # ------------------------------------------------------------------
    # snapshot/restore (checker-backtracking compatibility)
    # ------------------------------------------------------------------

    def snapshot(self) -> Optional[Tuple[Any, ...]]:
        """Capture tracer state; trivially None while nothing is traced."""
        if not self.enabled and not self._finished and not self._open:
            return None
        return (self._next_id, list(self._finished),
                dict(self._open), list(self._stack), self.dropped)

    def restore(self, token: Optional[Tuple[Any, ...]]) -> None:
        """Return to a state captured by :meth:`snapshot`."""
        if token is None:
            self._finished.clear()
            self._open.clear()
            self._stack.clear()
            self.dropped = 0
            return
        next_id, finished, open_spans, stack, dropped = token
        self._next_id = next_id
        self._finished = list(finished)
        self._open = dict(open_spans)
        self._stack = list(stack)
        self.dropped = dropped


def disabled_tracer() -> SpanTracer:
    """A permanently disabled tracer (components' default collaborator)."""
    return SpanTracer(clock=lambda: 0, enabled=False)
