"""Host-clock measurement at a fixed reference speed.

A shared virtual machine's speed can drift by tens of percent within
seconds (other tenants share its cores), and process CPU time drifts
with it.  So the
benchmark times a fixed pure-Python *reference kernel* beside the work:
reference samples are taken at both ends of each chunk of operations,
and the chunk's time is scaled by the mean of ``REFERENCE_S / sample``.
A host-clock figure is therefore the value the program would show on a
machine where the kernel takes :data:`REFERENCE_S`; the raw figure and
the measured speed are reported beside it.

The kernel is the benchmark's own code, so a change confined to the
program's own code paths moves the scaled figure as it moves the raw
one.  The kernel runs in the measured process, though: a change that
slows every Python call or allocation (a ``sys.settrace`` or
``sys.setprofile`` hook, ``tracemalloc``) slows the kernel too and is
divided out.  ``run.py`` samples the kernel in its own process around
each worker and warns when the worker's speed departs from those
samples.  A background thread competing for the GIL is not divided
out: a 1 ms sample mostly runs inside one GIL switch interval.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Tuple

#: The reference kernel duration that defines the reference speed: about
#: its time on an unloaded core of a 2.1 GHz Xeon VM, in seconds.
REFERENCE_S = 0.001
#: Reference samples taken at each chunk boundary.
SAMPLES_PER_BOUNDARY = 1

#: One timed chunk: (operations, seconds, reference samples, noted
#: durations).
Chunk = Tuple[int, float, List[float], List[float]]


def _mix(state: int, value: int) -> int:
    return (state * 31 + value) & 0xFFFF


def reference_kernel() -> int:
    """Fixed interpreter work on local integers: calls, arithmetic,
    branches.

    It touches no heap data structure and creates no object the garbage
    collector tracks, so its speed depends on the machine, not on where
    the workload's heap put things or on when a collection runs.
    """
    state = 0
    for i in range(11000):
        state = _mix(state, i)
        if state & 1:
            state ^= i & 0xFF
    return state


def reference_samples(n: int = SAMPLES_PER_BOUNDARY) -> List[float]:
    """Seconds each of *n* back-to-back kernel runs takes now."""
    samples = []
    for _ in range(n):
        start = time.perf_counter()
        reference_kernel()
        samples.append(time.perf_counter() - start)
    return samples


def speed(samples: List[float]) -> float:
    """Mean machine speed over *samples* relative to the reference
    (1.0 = reference).

    The mean, not the median: neighbour load comes in bursts, and work
    timed across a burst slows by the time-averaged speed, which
    samples spread over that time estimate without bias.
    """
    return statistics.mean(REFERENCE_S / sample for sample in samples)


class Meter:
    """Times a workload's rounds in chunks of at least *chunk_ops*
    operations.

    :meth:`begin` starts a round (sampling the reference first),
    :meth:`add` reports finished operations and closes a chunk once it
    holds *chunk_ops* of them, :meth:`sample` takes an extra reference
    sample inside a chunk (its time is not charged to the chunk),
    :meth:`note` records a duration measured inside the current chunk
    (scaled by :meth:`scaled_notes`), and :meth:`end` closes the
    round's last chunk, folding a remainder smaller than a chunk into
    the one before.  A chunk's speed comes from the samples at both of
    its ends (and any inside it); the samples that close one chunk also
    open the next.
    """

    def __init__(self, chunk_ops: int) -> None:
        self.chunk_ops = chunk_ops
        #: Per round, its closed chunks: (operations, seconds, samples,
        #: noted durations).
        self.rounds: List[List[Chunk]] = []
        self._start = 0.0
        self._ops = 0
        self._paused = 0.0
        self._refs: List[float] = []
        self._notes: List[float] = []

    def begin(self) -> None:
        self.rounds.append([])
        self._restart(reference_samples())

    def _restart(self, refs: List[float]) -> None:
        self._refs = list(refs)
        self._notes = []
        self._ops = 0
        self._paused = 0.0
        self._start = time.perf_counter()

    def sample(self) -> None:
        start = time.perf_counter()
        self._refs += reference_samples(1)
        self._paused += time.perf_counter() - start

    def note(self, seconds: float) -> None:
        """Record a host-clock duration taken inside the current chunk."""
        self._notes.append(seconds)

    def add(self, ops: int) -> None:
        self._ops += ops
        if self._ops >= self.chunk_ops:
            self._restart(self._close())

    def end(self) -> None:
        self._close()
        chunks = self.rounds[-1]
        if len(chunks) > 1 and chunks[-1][0] < self.chunk_ops:
            last, before = chunks.pop(), chunks.pop()
            chunks.append(tuple(a + b for a, b in zip(before, last)))

    def _close(self) -> List[float]:
        seconds = time.perf_counter() - self._start - self._paused
        after = reference_samples()
        self.rounds[-1].append((self._ops, seconds, self._refs + after,
                                self._notes))
        return after

    @property
    def chunks(self) -> List[Chunk]:
        return [chunk for chunks in self.rounds for chunk in chunks]

    @property
    def operations(self) -> int:
        return sum(chunk[0] for chunk in self.chunks)

    def rate(self) -> float:
        """Median over rounds of operations per second at the reference
        speed (a round's operations over its chunks' scaled time)."""
        return statistics.median(
            sum(ops for ops, _, _, _ in chunks)
            / sum(seconds * speed(refs) for _, seconds, refs, _ in chunks)
            for chunks in self.rounds)

    def raw_rate(self) -> float:
        """The same on the host clock as measured."""
        return statistics.median(
            sum(ops for ops, _, _, _ in chunks)
            / sum(seconds for _, seconds, _, _ in chunks)
            for chunks in self.rounds)

    def scaled_notes(self) -> List[float]:
        """Every noted duration at the reference speed, each scaled by
        the speed of the chunk it was taken in."""
        return [seconds * speed(refs) for _, _, refs, notes in self.chunks
                for seconds in notes]

    def speed(self) -> float:
        """Median machine speed over all chunks."""
        return statistics.median(speed(refs) for _, _, refs, _ in self.chunks)
