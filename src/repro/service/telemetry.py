"""Fleet telemetry: rolling trend windows + merged Perfetto traces.

The monitor loop of the always-on service.  Completions stream in via
:meth:`FleetTelemetry.record`; once per cadence interval the front end
calls :meth:`FleetTelemetry.close_window`, which folds the interval's
completions into one :class:`~repro.analysis.trends.ServiceTrendPoint`
and appends it to a bounded :class:`~repro.analysis.trends.TrendHistory`
— the in-memory equivalent of a dashboard's retention window.

Latency aggregation runs on log-bucketed
:class:`~repro.obs.histogram.LatencyHistogram` objects (one per window,
one for the whole run) instead of raw sample lists: memory per window is
bounded by the bucket count, not the request count, and the p99+ buckets
retain **exemplar trace ids** so any tail latency on a dashboard links
straight back to its full distributed trace.  No raw samples are kept:
that the window percentiles stay within the histogram's provable error
bound of the exact sample-interpolated values is a property test
(``tests/property/test_telemetry_windows.py``), not work the serving
loop repeats.

Two export paths:

* :meth:`trend_report` — the JSON trend report
  (:func:`repro.analysis.trends.service_trend_report`) CI uploads and
  the nightly soak appends to its history artifact;
* :meth:`fleet_chrome_trace` — the front end's spans plus every shard's
  spans and metric series merged into one Chrome/Perfetto trace: the
  front end is process 1, shard *i* is process ``i + 2``, and the merged
  stream is deterministically ordered with a stable global
  ``(process, span id)`` tie-break so two same-seed runs export
  byte-identical traces.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..analysis.trends import (
    ServiceTrendPoint,
    TrendHistory,
    jain_index,
    service_trend_report,
)
from ..obs.export import chrome_trace, ensure_valid_chrome_trace
from ..obs.histogram import LatencyHistogram
from .requests import OUTCOME_REJECTED, Completion

#: The merged fleet trace's process ids: the front end is process 1,
#: shard *i* is process ``i + FLEET_SHARD_PID_BASE``.
FLEET_FRONTEND_PID = 1
FLEET_SHARD_PID_BASE = 2


def _fleet_order(event: Dict[str, Any]) -> tuple:
    """Deterministic global ordering of merged trace events.

    Metadata first (grouped by process), then everything else by
    timestamp with a stable ``(pid, tid, span_id)`` tie-break —
    per-process span ids collide after a merge, so the process id is
    part of the key.
    """
    if event.get("ph") == "M":
        return (0, 0.0, event["pid"], event.get("tid", 0), 0, event["name"])
    args = event.get("args") or {}
    return (1, event.get("ts", 0.0), event["pid"], event.get("tid", 0),
            args.get("span_id", 0), event["name"])


class FleetTelemetry:
    """Aggregates completions into rolling trend windows.

    Args:
        tick_hz: service ticks per second (converts ticks to seconds).
        window_ticks: ticks per trend window.
        max_points: retention bound of the rolling history.
        exemplars: tail exemplars (trace ids) kept per histogram bucket.
    """

    def __init__(self, tick_hz: int = 10, window_ticks: int = 10,
                 max_points: int = 720, exemplars: int = 4) -> None:
        self.tick_hz = tick_hz
        self.window_ticks = window_ticks
        self.history = TrendHistory(max_points=max_points)
        self._window: List[Completion] = []
        self._exemplars_per_bucket = exemplars
        self._window_hist = LatencyHistogram(
            exemplars_per_bucket=exemplars)
        self._run_hist = LatencyHistogram(exemplars_per_bucket=exemplars)
        self._window_end_tick = window_ticks
        #: Per-tenant completed-request counts over the whole run.
        self.per_tenant_completed: Dict[str, int] = {}
        self.per_tenant_bytes: Dict[str, int] = {}
        self._completed = 0
        self._failed = 0
        self._rejected = 0
        self._bytes = 0
        self._last_counters: Dict[str, int] = {"retries": 0, "faults": 0}

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------

    def record(self, completion: Completion) -> None:
        """Fold one completion into the current window and the totals."""
        self._window.append(completion)
        tenant = completion.request.tenant
        if completion.outcome == OUTCOME_REJECTED:
            self._rejected += 1
            return
        trace = completion.request.trace
        trace_id = trace.trace_id if trace is not None else None
        self._window_hist.record(completion.latency_us, trace_id)
        self._run_hist.record(completion.latency_us, trace_id)
        if completion.ok:
            self._completed += 1
            self._bytes += completion.bytes_moved
            self.per_tenant_completed[tenant] = (
                self.per_tenant_completed.get(tenant, 0) + 1)
            self.per_tenant_bytes[tenant] = (
                self.per_tenant_bytes.get(tenant, 0)
                + completion.bytes_moved)
        else:
            self._failed += 1

    def close_window(self, tick: int,
                     queue_depths: Optional[Sequence[int]] = None,
                     retries: int = 0, faults: int = 0) -> ServiceTrendPoint:
        """Close the current window at *tick* and append a trend point.

        Percentiles come from the window's histogram, within its
        per-quantile error bound of the exact values (checked by
        :meth:`LatencyHistogram.verify_against_samples` in the property
        tests, not here).

        Args:
            queue_depths: current per-shard queue depths (mean reported).
            retries: cumulative fleet retry count (delta computed here).
            faults: cumulative faults injected (delta computed here).
        """
        window = self._window
        self._window = []
        hist = self._window_hist
        self._window_hist = LatencyHistogram(
            exemplars_per_bucket=self._exemplars_per_bucket)
        completed = [c for c in window
                     if c.ok and c.outcome != OUTCOME_REJECTED]
        failed = [c for c in window
                  if not c.ok and c.outcome != OUTCOME_REJECTED]
        rejected = [c for c in window if c.outcome == OUTCOME_REJECTED]
        bytes_moved = sum(c.bytes_moved for c in completed)
        window_s = self.window_ticks / self.tick_hz
        retry_delta = max(0, retries - self._last_counters["retries"])
        fault_delta = max(0, faults - self._last_counters["faults"])
        self._last_counters = {"retries": retries, "faults": faults}
        by_tenant: Dict[str, int] = {}
        for c in completed:
            by_tenant[c.request.tenant] = (
                by_tenant.get(c.request.tenant, 0) + 1)
        point = ServiceTrendPoint(
            t_s=tick / self.tick_hz,
            completed=len(completed),
            failed=len(failed),
            rejected=len(rejected),
            bytes_moved=bytes_moved,
            goodput_mbytes_per_s=(bytes_moved / window_s / 1e6
                                  if window_s else 0.0),
            p50_us=round(hist.percentile(50.0), 3),
            p95_us=round(hist.percentile(95.0), 3),
            p99_us=round(hist.percentile(99.0), 3),
            retries=retry_delta,
            faults=fault_delta,
            fairness=jain_index(list(by_tenant.values())),
            queue_depth=(sum(queue_depths) / len(queue_depths)
                         if queue_depths else 0.0),
            p99_exemplars=tuple(e["trace_id"]
                                for e in hist.exemplars(99.0)),
        )
        self.history.append(point)
        return point

    # ------------------------------------------------------------------
    # aggregate views
    # ------------------------------------------------------------------

    @property
    def completed(self) -> int:
        """Requests completed OK over the whole run."""
        return self._completed

    @property
    def failed(self) -> int:
        """Requests that aborted over the whole run."""
        return self._failed

    @property
    def rejected(self) -> int:
        """Requests shed by admission over the whole run."""
        return self._rejected

    @property
    def bytes_moved(self) -> int:
        """Payload bytes landed over the whole run."""
        return self._bytes

    def latency(self) -> Dict[str, float]:
        """p50/p95/p99/mean/max completion latency over the whole run
        (histogram-derived; relative error bounded by the bucket
        geometry)."""
        return self._run_hist.summary()

    def latency_exemplars(self, q: float = 99.0) -> List[Dict[str, Any]]:
        """Run-level tail exemplars: trace ids at or above quantile *q*."""
        return self._run_hist.exemplars(q)

    def fairness(self) -> Dict[str, Any]:
        """Jain indices over per-tenant completions and bytes."""
        return {
            "jain_completions":
                jain_index(list(self.per_tenant_completed.values())),
            "jain_bytes": jain_index(list(self.per_tenant_bytes.values())),
            "tenants_served": len(self.per_tenant_completed),
        }

    def trend_report(self, meta: Optional[Dict[str, Any]] = None
                     ) -> Dict[str, Any]:
        """The rolling-window trend report (see analysis.trends)."""
        return service_trend_report(self.history.points, meta=meta)

    # ------------------------------------------------------------------
    # Perfetto export
    # ------------------------------------------------------------------

    def fleet_chrome_trace(self, shards: Sequence[Any],
                           frontend_spans: Optional[Sequence[Any]] = None
                           ) -> Dict[str, Any]:
        """Merge the fleet's observability into one Chrome trace.

        The front end's spans (admission, queue wait, request roots)
        become process :data:`FLEET_FRONTEND_PID`; each shard's spans
        (point events included, as zero-duration spans) and metric
        series become process ``shard.index + FLEET_SHARD_PID_BASE``.
        The merged stream is sorted with :func:`_fleet_order` — ordering
        ties break on the stable global ``(pid, tid, span_id)`` key.
        """
        merged: List[Dict[str, Any]] = []
        if frontend_spans:
            trace = chrome_trace(list(frontend_spans),
                                 process_name="frontend",
                                 pid=FLEET_FRONTEND_PID)
            merged.extend(trace["traceEvents"])
        for shard in shards:
            trace = chrome_trace(
                shard.ws.spans.finished(),
                metrics=(shard.ws.metrics
                         if shard.ws.metrics.enabled else None),
                process_name=f"shard{shard.index}",
                pid=shard.index + FLEET_SHARD_PID_BASE)
            merged.extend(trace["traceEvents"])
        merged.sort(key=_fleet_order)
        out = {"traceEvents": merged, "displayTimeUnit": "ns"}
        ensure_valid_chrome_trace(out)
        return out
