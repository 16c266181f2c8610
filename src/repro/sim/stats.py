"""Counters and latency statistics.

Every hardware and OS model exposes its activity through a
:class:`StatRegistry` so experiments can report instruction counts, bus
transactions, context switches, DMA initiations, and latency aggregates
without the models printing anything themselves.  :func:`percentile` is
the one exact-quantile function over a list of samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence

from ..units import Time, to_us


class Counter:
    """A monotonically increasing event counter."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, n: int = 1) -> None:
        """Increment by *n* (must be non-negative)."""
        if n < 0:
            raise ValueError(f"counter {self.name!r}: negative increment {n}")
        self.value += n

    def reset(self) -> None:
        """Zero the counter."""
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class LatencyStat:
    """Accumulates a latency aggregate in integer picoseconds.

    Keeps count/sum/min/max only.  Distributions live elsewhere: raw
    samples go through :func:`percentile`, and bounded-memory ones
    through :class:`repro.obs.histogram.LatencyHistogram`.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total: Time = 0
        self.min: Optional[Time] = None
        self.max: Optional[Time] = None

    def record(self, latency: Time) -> None:
        """Record one latency sample."""
        if latency < 0:
            raise ValueError(
                f"latency stat {self.name!r}: negative sample {latency}")
        self.count += 1
        self.total += latency
        if self.min is None or latency < self.min:
            self.min = latency
        if self.max is None or latency > self.max:
            self.max = latency

    @property
    def mean(self) -> float:
        """Mean latency in picoseconds (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    @property
    def mean_us(self) -> float:
        """Mean latency in microseconds."""
        return to_us(round(self.mean))

    def reset(self) -> None:
        """Clear the aggregates."""
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None

    def __repr__(self) -> str:
        return (f"LatencyStat({self.name!r}, n={self.count}, "
                f"mean={self.mean_us:.3f}us)")


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0..100) of *values* by linear interpolation.

    Exact: the interpolation runs between the samples at ranks
    ``floor(r)`` and ``floor(r) + 1`` where ``r = (n - 1) * q / 100``.
    Accepts unsorted input; an empty sequence maps to 0.0 so trend
    windows with no completions stay representable.

    Raises:
        ValueError: for *q* outside [0, 100], samples or not.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return float(ordered[low] * (1.0 - frac) + ordered[high] * frac)


@dataclass
class StatRegistry:
    """A namespace of counters and latency stats owned by one component."""

    prefix: str = ""
    counters: Dict[str, Counter] = field(default_factory=dict)
    latencies: Dict[str, LatencyStat] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        """Get or create the counter *name*."""
        if name not in self.counters:
            self.counters[name] = Counter(self._qualify(name))
        return self.counters[name]

    def latency(self, name: str) -> LatencyStat:
        """Get or create the latency stat *name*."""
        if name not in self.latencies:
            self.latencies[name] = LatencyStat(self._qualify(name))
        return self.latencies[name]

    def reset(self) -> None:
        """Reset every counter and latency stat in the registry."""
        for counter in self.counters.values():
            counter.reset()
        for stat in self.latencies.values():
            stat.reset()

    def snapshot(self) -> Dict[str, float]:
        """Flat name -> value dict of all counters and latency means (us)."""
        out: Dict[str, float] = {}
        for name, counter in self.counters.items():
            out[self._qualify(name)] = float(counter.value)
        for name, stat in self.latencies.items():
            out[self._qualify(name) + ".mean_us"] = stat.mean_us
            out[self._qualify(name) + ".count"] = float(stat.count)
        return out

    def _qualify(self, name: str) -> str:
        return f"{self.prefix}.{name}" if self.prefix else name


def merge_snapshots(snapshots: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Merge several snapshots; later entries win on key collisions."""
    merged: Dict[str, float] = {}
    for snap in snapshots:
        merged.update(snap)
    return merged
