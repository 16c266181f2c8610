"""Wall-clock phase profiling for the checker and benchmarks.

A :class:`PhaseProfiler` accumulates wall seconds and counts per named
phase (``snapshot``, ``restore``, ``deliver``, ``leaf`` for the
incremental checker; anything for benchmarks).  It is deliberately dumb
— a dict of floats behind a context manager.  The checker times its
phases through wrappers bound once per check when a profiler is given,
so an unprofiled check pays nothing for it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Dict, Iterator

if TYPE_CHECKING:  # repro.analysis imports repro.core, which imports us
    from ..analysis.report import Table


class PhaseProfiler:
    """Accumulates wall time and operation counts per phase."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time one occurrence of *name* (also increments its count)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_seconds(name, time.perf_counter() - start)

    def add_seconds(self, name: str, seconds: float, n: int = 1) -> None:
        """Accumulate *seconds* of wall time (and *n* occurrences)."""
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self.counts[name] = self.counts.get(name, 0) + n

    def count(self, name: str, n: int = 1) -> None:
        """Count an occurrence of *name* without timing it."""
        self.counts[name] = self.counts.get(name, 0) + n

    def merge(self, other: "PhaseProfiler") -> None:
        """Fold another profiler's accumulations into this one."""
        for name, seconds in other.seconds.items():
            self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        for name, count in other.counts.items():
            self.counts[name] = self.counts.get(name, 0) + count

    def report(self) -> Dict[str, Any]:
        """JSON-ready per-phase {seconds, count, mean_us} mapping."""
        out: Dict[str, Any] = {}
        for name in sorted(set(self.seconds) | set(self.counts)):
            seconds = self.seconds.get(name, 0.0)
            count = self.counts.get(name, 0)
            out[name] = {
                "seconds": round(seconds, 6),
                "count": count,
                "mean_us": round(seconds / count * 1e6, 3) if count else 0.0,
            }
        return out

    def table(self, title: str = "Phase profile") -> "Table":
        """Terminal rendering of :meth:`report`."""
        from ..analysis.report import Table

        table = Table(title, ["phase", "count", "seconds", "mean (us)"])
        for name, entry in self.report().items():
            table.add_row(name, entry["count"], f"{entry['seconds']:.4f}",
                          f"{entry['mean_us']:.2f}")
        return table
