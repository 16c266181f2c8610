"""Trend analysis: the paper's overhead argument, plus fleet telemetry.

The paper's motivation: "the operating system overhead keeps getting an
ever-increasing percentage of the DMA transfer time, while the time for
the data transfer per se continues to decrease.  Soon, the operating
system overhead will dominate the DMA transfer."

This module measures initiation cost on the *simulated machine* (not an
analytic guess — it runs the real instruction sequences) and combines it
with link serialization times to produce, for every (method, link
generation) pair:

* the end-to-end time of a message as a function of its size,
* the fraction of that time spent on initiation,
* the **crossover size** below which initiation costs more than moving
  the data — the quantity the paper's argument turns on.

It also hosts the *service* trend machinery used by the always-on DMA
service (:mod:`repro.service`): rolling time-series windows of goodput,
tail latency, fairness, and fault activity (:class:`ServiceTrendPoint`),
the trend report the soak harness emits
(:func:`service_trend_report`), and the regression comparator CI runs
against the committed ``BENCH_service.json`` baseline
(:func:`compare_service_reports`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..core.api import DmaChannel
from ..core.machine import MachineConfig, Workstation
from ..core.timing import MachineTiming
from ..net.link import LinkSpec
from ..sim.stats import percentile
from ..units import Time, to_us, us


def measure_initiation_us(method: str,
                          timing: Optional[MachineTiming] = None,
                          iterations: int = 20,
                          seed: int = 42) -> float:
    """Measure the warm mean initiation latency of *method*, in us.

    Builds a fresh workstation, performs one warm-up initiation (TLB
    fill), then averages *iterations* initiations to distinct offsets —
    the paper's §3.4 methodology in miniature.
    """
    config = MachineConfig(method=method, seed=seed)
    if timing is not None:
        config.timing = timing
    ws = Workstation(config)
    proc = ws.kernel.spawn("trend")
    if method != "kernel":
        ws.kernel.enable_user_dma(proc)
    src = ws.kernel.alloc_buffer(proc, 8192, shadow=(method != "kernel"))
    dst = ws.kernel.alloc_buffer(proc, 8192, shadow=(method != "kernel"))
    if method == "shrimp1":
        ws.kernel.map_out(proc, src.vaddr, proc, dst.vaddr, 8192)
    chan = DmaChannel(ws, proc)
    chan.initiate(src.vaddr, dst.vaddr, 64)  # warm-up
    total: Time = 0
    for index in range(iterations):
        offset = (index % 64) * 64
        result = chan.initiate(src.vaddr + offset, dst.vaddr + offset, 64)
        total += result.elapsed
        ws.drain()
    return to_us(total) / iterations


@dataclass(frozen=True)
class TrendPoint:
    """One (method, link, size) sample.

    Attributes:
        method: initiation method.
        link: link preset name.
        size: message size in bytes.
        initiation_us: initiation latency.
        wire_us: link serialization + latency for the payload.
        total_us: end-to-end time.
        overhead_fraction: initiation / total.
    """

    method: str
    link: str
    size: int
    initiation_us: float
    wire_us: float
    total_us: float

    @property
    def overhead_fraction(self) -> float:
        """Share of end-to-end time spent initiating."""
        return self.initiation_us / self.total_us if self.total_us else 0.0


def overhead_sweep(methods: Sequence[str], links: Sequence[LinkSpec],
                   sizes: Sequence[int],
                   timing: Optional[MachineTiming] = None,
                   initiation_us: Optional[Dict[str, float]] = None,
                   ) -> List[TrendPoint]:
    """Sample the overhead surface over methods x links x sizes.

    Args:
        initiation_us: pre-measured initiation latencies (else measured
            here, once per method).
    """
    measured = dict(initiation_us) if initiation_us else {}
    points: List[TrendPoint] = []
    for method in methods:
        if method not in measured:
            measured[method] = measure_initiation_us(method, timing)
        for link in links:
            for size in sizes:
                wire_us = to_us(link.delivery_time(size))
                init = measured[method]
                points.append(TrendPoint(
                    method=method, link=link.name, size=size,
                    initiation_us=init, wire_us=wire_us,
                    total_us=init + wire_us))
    return points


@dataclass(frozen=True)
class CrossoverPoint:
    """The message size where initiation equals wire time.

    Below this size the sender spends more time *starting* the DMA than
    the network spends *moving* it — the regime the paper says kernel
    initiation has already entered on fast LANs.
    """

    method: str
    link: str
    initiation_us: float
    crossover_bytes: int


def crossover_size(initiation_us_value: float,
                   link: LinkSpec) -> int:
    """Bytes whose wire time equals the given initiation latency.

    Solves ``latency + (size + overhead)/bandwidth == initiation``; a
    non-positive solution (initiation below the bare link latency) maps
    to 0 — initiation never dominates on that link.
    """
    budget_ps = us(initiation_us_value) - link.latency
    if budget_ps <= 0:
        return 0
    size = budget_ps * link.bandwidth_bps / 8 / 1_000_000_000_000
    size -= link.per_message_overhead
    return max(0, int(size))


def crossover_table(methods: Sequence[str], links: Sequence[LinkSpec],
                    timing: Optional[MachineTiming] = None,
                    initiation_us: Optional[Dict[str, float]] = None,
                    ) -> List[CrossoverPoint]:
    """Crossover sizes for every (method, link) pair."""
    measured = dict(initiation_us) if initiation_us else {}
    out: List[CrossoverPoint] = []
    for method in methods:
        if method not in measured:
            measured[method] = measure_initiation_us(method, timing)
        for link in links:
            out.append(CrossoverPoint(
                method=method, link=link.name,
                initiation_us=measured[method],
                crossover_bytes=crossover_size(measured[method], link)))
    return out


# ----------------------------------------------------------------------
# Service trend analysis (the always-on DMA service's telemetry format)
# ----------------------------------------------------------------------

def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``.

    1.0 means perfectly even shares; ``1/n`` means one tenant got
    everything.  An empty or all-zero sample maps to 1.0 (no unfairness
    has been demonstrated).
    """
    xs = [float(v) for v in values]
    total = sum(xs)
    if not xs or total == 0.0:
        return 1.0
    squares = sum(x * x for x in xs)
    return round(total * total / (len(xs) * squares), 6)


@dataclass(frozen=True)
class ServiceTrendPoint:
    """One rolling telemetry window of the always-on service.

    Attributes:
        t_s: window end, in service-time seconds.
        completed: requests that finished OK in the window.
        failed: requests that aborted (after retries/fallback).
        rejected: requests the admission controller turned away.
        bytes_moved: payload bytes landed in the window.
        goodput_mbytes_per_s: payload MB/s over the window.
        p50_us / p95_us / p99_us: completion-latency percentiles over
            the window, in simulated microseconds.
        retries: retry count delta over the window.
        faults: faults injected during the window.
        fairness: Jain index of per-tenant completions in the window.
        queue_depth: mean shard queue depth sampled at window end.
        p99_exemplars: trace ids sampled from the window's p99+ latency
            histogram buckets — each links a tail number back to one
            full distributed trace.
    """

    t_s: float
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    bytes_moved: int = 0
    goodput_mbytes_per_s: float = 0.0
    p50_us: float = 0.0
    p95_us: float = 0.0
    p99_us: float = 0.0
    retries: int = 0
    faults: int = 0
    fairness: float = 1.0
    queue_depth: float = 0.0
    p99_exemplars: tuple = ()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready rendering."""
        out: Dict[str, Any] = {
            "t_s": round(self.t_s, 3),
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "bytes_moved": self.bytes_moved,
            "goodput_mbytes_per_s": round(self.goodput_mbytes_per_s, 4),
            "p50_us": round(self.p50_us, 3),
            "p95_us": round(self.p95_us, 3),
            "p99_us": round(self.p99_us, 3),
            "retries": self.retries,
            "faults": self.faults,
            "fairness": self.fairness,
            "queue_depth": round(self.queue_depth, 3),
        }
        if self.p99_exemplars:
            out["p99_exemplars"] = list(self.p99_exemplars)
        return out


@dataclass
class TrendHistory:
    """A bounded rolling window of :class:`ServiceTrendPoint` entries.

    The telemetry monitor appends one point per cadence interval; the
    bound keeps an always-on service's memory flat (old windows fall
    off the left edge, exactly like a dashboard's retention horizon).
    """

    max_points: int = 720
    points: List[ServiceTrendPoint] = field(default_factory=list)

    def append(self, point: ServiceTrendPoint) -> None:
        """Add a window, evicting the oldest beyond ``max_points``."""
        self.points.append(point)
        if len(self.points) > self.max_points:
            del self.points[:len(self.points) - self.max_points]

    def __len__(self) -> int:
        return len(self.points)


def service_trend_report(points: Sequence[ServiceTrendPoint],
                         meta: Optional[Dict[str, Any]] = None
                         ) -> Dict[str, Any]:
    """The trend report the soak harness persists and CI uploads.

    Aggregates the rolling windows into an overall summary (goodput,
    tail latency of the worst window, fairness floor) and flags
    intra-run regressions: windows whose goodput fell below half the
    run's median are listed under ``"stalls"`` so a soak that *mostly*
    worked cannot hide a dead interval.
    """
    windows = [p.to_dict() for p in points]
    goodputs = [p.goodput_mbytes_per_s for p in points
                if p.completed or p.failed]
    median_goodput = percentile(goodputs, 50.0) if goodputs else 0.0
    stalls = [p.t_s for p in points
              if (p.completed or p.failed)
              and median_goodput > 0.0
              and p.goodput_mbytes_per_s < 0.5 * median_goodput]
    summary = {
        "windows": len(points),
        "completed": sum(p.completed for p in points),
        "failed": sum(p.failed for p in points),
        "rejected": sum(p.rejected for p in points),
        "bytes_moved": sum(p.bytes_moved for p in points),
        "median_goodput_mbytes_per_s": round(median_goodput, 4),
        "worst_window_p99_us": round(max((p.p99_us for p in points),
                                         default=0.0), 3),
        "min_fairness": round(min((p.fairness for p in points
                                   if p.completed), default=1.0), 6),
        "max_queue_depth": round(max((p.queue_depth for p in points),
                                     default=0.0), 3),
        "total_retries": sum(p.retries for p in points),
        "total_faults": sum(p.faults for p in points),
    }
    report: Dict[str, Any] = {
        "kind": "service_trend",
        "summary": summary,
        "stalls": [round(t, 3) for t in stalls],
        "windows_series": windows,
    }
    if meta:
        report["meta"] = dict(meta)
    return report


def compare_service_reports(baseline: Dict[str, Any],
                            candidate: Dict[str, Any],
                            max_goodput_drop: float = 0.10,
                            max_p99_increase: float = 0.10
                            ) -> List[str]:
    """CI gate between two ``BENCH_service.json`` soak reports.

    Returns human-readable failure lines (empty = gate passes):

    * candidate aggregate goodput more than *max_goodput_drop* below
      the baseline's;
    * candidate p99 completion latency more than *max_p99_increase*
      above the baseline's;
    * any wrong-page transfer in the candidate (always fatal);
    * a candidate fault verdict of ``UNSAFE``.
    """
    failures: List[str] = []
    base_good = float(baseline.get("goodput_mbytes_per_s") or 0.0)
    cand_good = float(candidate.get("goodput_mbytes_per_s") or 0.0)
    if base_good > 0.0:
        drop = (base_good - cand_good) / base_good
        if drop > max_goodput_drop:
            failures.append(
                f"goodput {cand_good:.3f} MB/s is {drop * 100:.1f}% below "
                f"baseline {base_good:.3f} MB/s "
                f"(allowed {max_goodput_drop * 100:.0f}%)")
    base_p99 = float((baseline.get("latency_us") or {}).get("p99") or 0.0)
    cand_p99 = float((candidate.get("latency_us") or {}).get("p99") or 0.0)
    if base_p99 > 0.0:
        rise = (cand_p99 - base_p99) / base_p99
        if rise > max_p99_increase:
            failures.append(
                f"p99 latency {cand_p99:.1f} us is {rise * 100:.1f}% above "
                f"baseline {base_p99:.1f} us "
                f"(allowed {max_p99_increase * 100:.0f}%)")
    wrong = int((candidate.get("requests") or {}).get("wrong_transfers", 0))
    if wrong:
        failures.append(f"{wrong} wrong-page transfer(s) in candidate "
                        f"(must be 0)")
    verdict = (candidate.get("faults") or {}).get("verdict")
    if verdict == "UNSAFE":
        failures.append("candidate fault verdict is UNSAFE")
    return failures


# ----------------------------------------------------------------------
# Anomaly detection over the window series (`repro trends --check`)
# ----------------------------------------------------------------------

def ewma(values: Sequence[float], alpha: float = 0.3) -> List[float]:
    """Exponentially weighted moving average of *values*.

    ``out[i]`` is the EWMA *including* ``values[i]``; an empty input
    maps to an empty list.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    out: List[float] = []
    level: Optional[float] = None
    for value in values:
        level = (float(value) if level is None
                 else alpha * float(value) + (1.0 - alpha) * level)
        out.append(level)
    return out


def robust_z(values: Sequence[float]) -> List[float]:
    """Robust z-scores: deviation from the median in MAD units.

    Uses the consistency constant 1.4826 so the score matches an
    ordinary z-score on normal data, but a single wild window cannot
    inflate the spread estimate the way it would a standard deviation.
    A zero MAD (over half the values identical) falls back to the mean
    absolute deviation; if that is zero too the series is constant and
    every score is 0.
    """
    xs = [float(v) for v in values]
    if not xs:
        return []
    med = percentile(xs, 50.0)
    deviations = [abs(x - med) for x in xs]
    mad = percentile(deviations, 50.0)
    scale = 1.4826 * mad
    if scale == 0.0:
        mean_dev = sum(deviations) / len(deviations)
        scale = 1.2533 * mean_dev  # E|X-mu| = sigma*sqrt(2/pi)
    if scale == 0.0:
        return [0.0] * len(xs)
    return [(x - med) / scale for x in xs]


def detect_anomalies(values: Sequence[float], z_threshold: float = 4.0,
                     alpha: float = 0.3,
                     min_residual: float = 0.0) -> List[int]:
    """Indices of windows that deviate anomalously from the trend.

    Each value is compared against the EWMA of the values *before* it
    (the trend's one-step prediction); the residuals are then scored
    with :func:`robust_z` and indices whose absolute score exceeds
    *z_threshold* are returned.  The combination flags genuine level
    shifts and spikes while tolerating the heavy-tailed noise a faulted
    soak produces.

    *min_residual* is an absolute floor: a window is never anomalous
    unless its residual also exceeds it.  Sparse integer series (the
    per-window failure count of a healthy soak is mostly 0 with
    scattered 1s) collapse the robust scale toward zero, which would
    turn a single failed request into a paging z-score; a small
    absolute floor removes that failure mode without desensitizing
    genuinely large bursts.
    """
    xs = [float(v) for v in values]
    if len(xs) < 3:
        return []
    smoothed = ewma(xs, alpha=alpha)
    residuals = [xs[0] - xs[0]] + [xs[i] - smoothed[i - 1]
                                   for i in range(1, len(xs))]
    scores = robust_z(residuals)
    return [i for i, score in enumerate(scores)
            if abs(score) > z_threshold
            and abs(residuals[i]) > min_residual]


def trend_anomaly_report(report: Dict[str, Any],
                         z_threshold: float = 4.0,
                         alpha: float = 0.3) -> Dict[str, Any]:
    """Anomaly scan of a service trend report's window series.

    Checks the three series an operator watches — goodput, p99
    latency, and failure count — and returns the anomalous window
    timestamps per series.  ``repro trends --check`` exits non-zero
    when ``anomalous`` is true, which CI runs against the committed
    ``BENCH_service.json`` history.
    """
    windows = report.get("windows_series") or []
    series = {
        "goodput_mbytes_per_s": [w.get("goodput_mbytes_per_s", 0.0)
                                 for w in windows],
        "p99_us": [w.get("p99_us", 0.0) for w in windows],
        "failed": [w.get("failed", 0) for w in windows],
    }
    # The failure count is a sparse integer series: under faults a
    # healthy window fails 0-2 requests, so only multi-request bursts
    # are signal.  The continuous series keep a zero floor.
    floors = {"failed": 3.0}
    t_s = [w.get("t_s", 0.0) for w in windows]
    anomalies: Dict[str, List[float]] = {}
    for name, values in series.items():
        hits = detect_anomalies(values, z_threshold=z_threshold,
                                alpha=alpha,
                                min_residual=floors.get(name, 0.0))
        if hits:
            anomalies[name] = [round(t_s[i], 3) for i in hits]
    return {
        "kind": "trend_anomalies",
        "windows": len(windows),
        "z_threshold": z_threshold,
        "alpha": alpha,
        "anomalies": anomalies,
        "anomalous": bool(anomalies),
    }
