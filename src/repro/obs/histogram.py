"""Log-bucketed latency histograms with trace exemplars.

An HDR-style histogram: bucket boundaries grow geometrically —
``sub_buckets`` linearly-spaced buckets per power of two above
``min_value_us`` — so the *relative* quantile error is bounded by
``1 / sub_buckets`` regardless of dynamic range, while memory stays a
sparse dict of non-empty buckets.  This is what lets
:class:`~repro.service.telemetry.FleetTelemetry` keep whole-run and
per-window latency distributions in bounded memory instead of an
unbounded raw-sample list.

**Exemplars.**  :meth:`LatencyHistogram.record` optionally attaches a
trace id to the sample's bucket (a bounded ring per bucket).  Because
tail buckets are sparse, the p99+ buckets effectively retain *every*
recent tail trace id — :meth:`exemplars` returns them, so any tail
sample in a dashboard links back to its full causal tree via
:func:`~repro.obs.context.causal_tree`.

**Interpolation convention.**  :meth:`percentile` mirrors the exact
:func:`repro.sim.stats.percentile` over raw samples: the *q*-th
percentile is the linear interpolation between the samples at ranks
``floor(r)`` and ``ceil(r)`` where ``r = (n - 1) * q / 100`` — each
sample approximated by a bucket-uniform position estimate.
:meth:`percentile_error_bound` returns the worst-case absolute error
of that approximation, which is what the telemetry-window property
tests hold every window's percentiles to.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from ..errors import ObservabilityError
from ..sim.stats import percentile


class LatencyHistogram:
    """A sparse log-bucketed histogram of latencies in microseconds.

    Args:
        min_value_us: lower edge of the first octave; smaller samples
            clamp into bucket 0.
        sub_buckets: linear buckets per power of two — the relative
            quantile error bound is ``1 / sub_buckets``.
        exemplars_per_bucket: trace ids retained per bucket (newest
            win), so tail buckets always link to recent full traces.
    """

    def __init__(self, min_value_us: float = 0.01,
                 sub_buckets: int = 32,
                 exemplars_per_bucket: int = 4) -> None:
        if min_value_us <= 0.0:
            raise ObservabilityError(
                f"min_value_us must be positive, got {min_value_us}")
        if sub_buckets < 1:
            raise ObservabilityError(
                f"sub_buckets must be >= 1, got {sub_buckets}")
        self.min_value_us = float(min_value_us)
        self.sub_buckets = int(sub_buckets)
        self.exemplars_per_bucket = int(exemplars_per_bucket)
        self._counts: Dict[int, int] = {}
        self._exemplars: Dict[int, Deque[Tuple[str, float]]] = {}
        self.count = 0
        self.total_us = 0.0
        self.min_us: Optional[float] = None
        self.max_us: Optional[float] = None

    # ------------------------------------------------------------------
    # bucket geometry
    # ------------------------------------------------------------------

    def bucket_index(self, value_us: float) -> int:
        """The bucket a sample lands in (values clamp at the low edge)."""
        ratio = value_us / self.min_value_us
        if ratio < 1.0:
            return 0
        _, exponent = math.frexp(ratio)  # ratio = f * 2**e, f in [0.5, 1)
        octave = exponent - 1
        within = ratio / (1 << octave)  # in [1, 2)
        sub = min(self.sub_buckets - 1,
                  int((within - 1.0) * self.sub_buckets))
        return octave * self.sub_buckets + sub

    def bucket_bounds(self, index: int) -> Tuple[float, float]:
        """``[lower, upper)`` edges of bucket *index*, in microseconds."""
        octave, sub = divmod(index, self.sub_buckets)
        base = self.min_value_us * (1 << octave)
        lower = base * (1.0 + sub / self.sub_buckets)
        upper = base * (1.0 + (sub + 1) / self.sub_buckets)
        return lower, upper

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------

    def record(self, value_us: float,
               trace_id: Optional[str] = None) -> None:
        """Fold one latency sample in, optionally tagged with its trace."""
        if value_us < 0.0:
            raise ObservabilityError(
                f"latency must be non-negative, got {value_us}")
        index = self.bucket_index(value_us)
        self._counts[index] = self._counts.get(index, 0) + 1
        self.count += 1
        self.total_us += value_us
        if self.min_us is None or value_us < self.min_us:
            self.min_us = value_us
        if self.max_us is None or value_us > self.max_us:
            self.max_us = value_us
        if trace_id is not None:
            ring = self._exemplars.get(index)
            if ring is None:
                ring = self._exemplars[index] = deque(
                    maxlen=self.exemplars_per_bucket)
            ring.append((trace_id, value_us))

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold *other* (same geometry) into this histogram."""
        if (other.min_value_us != self.min_value_us
                or other.sub_buckets != self.sub_buckets):
            raise ObservabilityError(
                "cannot merge histograms with different bucket geometry")
        for index, count in other._counts.items():
            self._counts[index] = self._counts.get(index, 0) + count
        for index, ring in other._exemplars.items():
            mine = self._exemplars.get(index)
            if mine is None:
                mine = self._exemplars[index] = deque(
                    maxlen=self.exemplars_per_bucket)
            mine.extend(ring)
        self.count += other.count
        self.total_us += other.total_us
        for bound in (other.min_us, other.max_us):
            if bound is None:
                continue
            if self.min_us is None or bound < self.min_us:
                self.min_us = bound
            if self.max_us is None or bound > self.max_us:
                self.max_us = bound

    # ------------------------------------------------------------------
    # quantiles
    # ------------------------------------------------------------------

    def _rank_estimate(self, rank: int) -> Tuple[float, float]:
        """(estimate, worst-case error) of the sample at sorted *rank*.

        The estimate places the bucket's samples uniformly across the
        bucket, clamped into the exact recorded [min, max]; the error
        bound is the bucket width (zero when min == max pins it).
        """
        cumulative = 0
        for index in sorted(self._counts):
            count = self._counts[index]
            if rank < cumulative + count:
                lower, upper = self.bucket_bounds(index)
                position = (rank - cumulative + 0.5) / count
                estimate = lower + (upper - lower) * position
                assert self.min_us is not None and self.max_us is not None
                estimate = min(max(estimate, self.min_us), self.max_us)
                return estimate, upper - lower
            cumulative += count
        assert self.max_us is not None  # rank beyond the data: clamp
        return self.max_us, 0.0

    def _rank_of(self, q: float) -> float:
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        return (self.count - 1) * q / 100.0

    def percentile(self, q: float) -> float:
        """The *q*-th percentile under the shared linear-interpolation
        convention (see the module docstring); 0.0 when empty."""
        if self.count == 0:
            self._rank_of(q)  # still validate the argument
            return 0.0
        if q == 0.0:
            assert self.min_us is not None
            return self.min_us
        if q == 100.0:
            assert self.max_us is not None
            return self.max_us
        rank = self._rank_of(q)
        low = int(rank)
        frac = rank - low
        low_value, _ = self._rank_estimate(low)
        if frac == 0.0:
            return low_value
        high_value, _ = self._rank_estimate(min(low + 1, self.count - 1))
        return low_value * (1.0 - frac) + high_value * frac

    def percentile_error_bound(self, q: float) -> float:
        """Worst-case absolute error of :meth:`percentile` at *q*."""
        if self.count == 0:
            return 0.0
        rank = self._rank_of(q)
        low = int(rank)
        frac = rank - low
        _, low_err = self._rank_estimate(low)
        if frac == 0.0:
            return low_err
        _, high_err = self._rank_estimate(min(low + 1, self.count - 1))
        return low_err * (1.0 - frac) + high_err * frac

    @property
    def mean_us(self) -> float:
        """Exact mean of the recorded samples (0.0 when empty)."""
        return self.total_us / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        """The ``latency_us`` report block: p50/p95/p99, mean, max, n."""
        if self.count == 0:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0,
                    "max": 0.0, "n": 0}
        assert self.max_us is not None
        return {
            "p50": round(self.percentile(50.0), 3),
            "p95": round(self.percentile(95.0), 3),
            "p99": round(self.percentile(99.0), 3),
            "mean": round(self.mean_us, 3),
            "max": round(self.max_us, 3),
            "n": self.count,
        }

    # ------------------------------------------------------------------
    # exemplars
    # ------------------------------------------------------------------

    def exemplars(self, q: float = 99.0) -> List[Dict[str, Any]]:
        """Trace exemplars at or above the *q*-th percentile's bucket.

        Returns ``{"trace_id", "latency_us"}`` dicts, slowest first —
        every entry links a tail sample to its full causal tree.
        """
        if self.count == 0:
            return []
        threshold = self.bucket_index(max(self.percentile(q),
                                          self.min_value_us))
        out: List[Dict[str, Any]] = []
        for index in sorted(self._exemplars, reverse=True):
            if index < threshold:
                break
            for trace_id, value in reversed(self._exemplars[index]):
                out.append({"trace_id": trace_id,
                            "latency_us": round(value, 3)})
        return out

    # ------------------------------------------------------------------
    # consistency + serialization
    # ------------------------------------------------------------------

    def verify_against_samples(self, samples_us: Sequence[float],
                               qs: Tuple[float, ...] = (50.0, 95.0, 99.0)
                               ) -> List[str]:
        """Cross-check this histogram against the raw samples (in us)
        it was fed.

        Both use the identical interpolation convention, so any
        disagreement beyond the histogram's per-quantile error bound
        (plus float slack) means the two aggregation paths diverged —
        the property the telemetry-window tests assert for every
        window.  Returns problem strings (empty = consistent).
        """
        problems: List[str] = []
        if len(samples_us) != self.count:
            problems.append(f"sample counts differ: samples="
                            f"{len(samples_us)} histogram={self.count}")
            return problems
        for q in qs:
            exact_us = percentile(samples_us, q)
            approx_us = self.percentile(q)
            bound = self.percentile_error_bound(q) + 1e-5
            if abs(approx_us - exact_us) > bound:
                problems.append(
                    f"p{q:g} disagrees: histogram {approx_us:.4f} us vs "
                    f"exact {exact_us:.4f} us (allowed ±{bound:.4f})")
        return problems

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready rendering: non-empty buckets plus exemplars."""
        return {
            "min_value_us": self.min_value_us,
            "sub_buckets": self.sub_buckets,
            "count": self.count,
            "mean_us": round(self.mean_us, 4),
            "min_us": round(self.min_us, 4) if self.min_us is not None
            else None,
            "max_us": round(self.max_us, 4) if self.max_us is not None
            else None,
            "buckets": [
                {"lower_us": round(self.bucket_bounds(index)[0], 4),
                 "count": self._counts[index]}
                for index in sorted(self._counts)],
            "exemplars": self.exemplars(99.0),
        }

    def __len__(self) -> int:
        return self.count
