"""The discrete-event simulation engine.

A :class:`Simulator` owns the global clock (integer picoseconds) and
one pending-event queue: a binary heap (:mod:`heapq`) of
``(when, seq, action, label)`` tuples.  ``seq`` is a unique,
monotonically increasing insertion number, so events fire in
``(when, seq)`` order — same-time events first-scheduled-first — and a
comparison never reaches ``action``.  Identical inputs replay
identically.

One heap is all the queue needs, because it is almost always nearly
empty.  Over the test suite and the benchmark suite (about 73,000
pushes) the queue held one event after 87 % of pushes and at most two
after 98.7 %, and never more than 18; in the committed soak run
(``benchmarks/results/BENCH_service.json``) every one of its 19,031
pushes found the queue empty.  A heap operation on a queue that small
costs less than choosing a tier, so the simulator keeps no timing
wheel, no far tier and no free list of recycled events.  Nothing
cancels an event either, so :meth:`Simulator.schedule` returns no
handle and every queued event is live: :attr:`Simulator.pending` is
the heap's length.

Components schedule callbacks with :meth:`Simulator.schedule` /
:meth:`Simulator.call_at`, and the owner of the simulation drives it
with :meth:`Simulator.run` (until the queue drains or a deadline passes)
or :meth:`Simulator.step`.

Two styles of progress coexist:

* **Synchronous components** (the CPU executing an instruction stream)
  advance the clock directly with :meth:`Simulator.advance`; they represent
  the single foreground thread of control.
* **Background activities** (DMA data transfers, network deliveries)
  schedule future events; the foreground can :meth:`Simulator.run_until`
  a timestamp or :meth:`Simulator.wait_for` a predicate to let them complete.

The incremental model checker backtracks through
:meth:`Simulator.bind_journal`, which switches the simulator to
O(changes) undo journaling (see :mod:`repro.sim.journal`).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, List, Optional, Tuple

from ..errors import SimulationError
from ..units import Time
from .journal import UndoJournal

#: One queued event: (when, seq, action, label).
_Entry = Tuple[Time, int, Callable[[], None], str]


class Simulator:
    """One event heap plus the global simulated clock.

    Attributes:
        now: current simulated time in integer picoseconds.
    """

    def __init__(self) -> None:
        self.now: Time = 0
        self._seq = 0
        self._events_fired = 0
        self._queue: List[_Entry] = []
        # -- live_event_signature cache: dropped on any queue change --
        self._sig: Optional[Tuple[Tuple[Time, str], ...]] = None
        # -- undo journal --
        self._journal: Optional[UndoJournal] = None

    # -- journaling -----------------------------------------------------

    def bind_journal(self, journal: Optional[UndoJournal]) -> None:
        """Attach (or detach, with None) a shared undo journal.

        While bound, each push and each pop records one entry, so
        ``journal.undo_to(mark)`` returns the queue to its state at the
        mark at O(changes) cost.  The clock and counters are captured by
        whoever marks (:meth:`~repro.verify.interleave.ProtocolHarness.
        snapshot` puts them in the mark's entry), not here.
        """
        self._journal = journal

    def _j_unpush(self, entry: _Entry) -> None:
        """Undo of a push: take *entry* out of the queue again."""
        queue = self._queue
        queue.remove(entry)
        heapify(queue)
        self._sig = None

    def _j_unpop(self, entry: _Entry) -> None:
        """Undo of a pop: put *entry* back."""
        heappush(self._queue, entry)
        self._sig = None

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: Time, action: Callable[[], None],
                 label: str = "") -> None:
        """Schedule *action* to run *delay* ps from now.

        Raises:
            SimulationError: if *delay* is negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        self.call_at(self.now + delay, action, label)

    def call_at(self, when: Time, action: Callable[[], None],
                label: str = "") -> None:
        """Schedule *action* at absolute time *when*.

        Raises:
            SimulationError: if *when* is before the current time.
        """
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at {when} before now={self.now}")
        entry = (when, self._seq, action, label)
        self._seq += 1
        journal = self._journal
        if journal is not None:
            journal.record_call(self._j_unpush, entry)
        heappush(self._queue, entry)
        self._sig = None

    # -- synchronous time ---------------------------------------------------

    def advance(self, delta: Time) -> Time:
        """Advance the clock by *delta* ps, firing any events that become due.

        This is the foreground thread of control "spending" time; background
        events scheduled inside the advanced window fire in timestamp order
        before the clock settles at the new value.

        Returns:
            The new current time.

        Raises:
            SimulationError: if *delta* is negative.
        """
        if delta < 0:
            raise SimulationError(f"cannot advance by negative time: {delta}")
        target = self.now + delta
        queue = self._queue
        while queue and queue[0][0] <= target:
            self.step()
        self.now = target
        return target

    # -- event loop -----------------------------------------------------------

    def step(self) -> bool:
        """Fire the single next pending event.

        Returns:
            True if an event fired, False if the queue was empty.
        """
        queue = self._queue
        if not queue:
            return False
        entry = heappop(queue)
        journal = self._journal
        if journal is not None:
            journal.record_call(self._j_unpop, entry)
        self._sig = None
        self.now = entry[0]
        self._events_fired += 1
        entry[2]()
        return True

    def run(self, until: Optional[Time] = None) -> int:
        """Run events until the queue drains or *until* passes.

        Args:
            until: absolute deadline; events after it stay queued and the
                clock is left at the deadline, or where it was if that
                is later.

        Returns:
            The number of events fired.
        """
        queue = self._queue
        fired = 0
        while queue and (until is None or queue[0][0] <= until):
            self.step()
            fired += 1
        if until is not None:
            self.now = max(self.now, until)
        return fired

    def run_until(self, when: Time) -> int:
        """Run all events up to and including absolute time *when*."""
        return self.run(until=when)

    def wait_for(self, predicate: Callable[[], bool],
                 timeout: Optional[Time] = None) -> bool:
        """Fire events until *predicate* becomes true.

        Args:
            predicate: checked before any event and after each one.
            timeout: give up after this much simulated time elapses.

        Returns:
            True if the predicate became true, False on timeout or if the
            queue drained without satisfying it.
        """
        deadline = None if timeout is None else self.now + timeout
        if predicate():
            return True
        queue = self._queue
        while queue:
            if deadline is not None and queue[0][0] > deadline:
                self.now = deadline
                return predicate()
            self.step()
            if predicate():
                return True
        return predicate()

    # -- introspection --------------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    @property
    def events_fired(self) -> int:
        """Total number of events that have fired."""
        return self._events_fired

    def time_source(self) -> Callable[[], Time]:
        """A zero-argument callable reading the current simulated time.

        The observability layer (span tracers, metrics samplers) holds
        this instead of the simulator itself, so it can also be driven
        by synthetic clocks in tests.
        """
        return lambda: self.now

    def live_event_signature(self) -> Tuple[Tuple[Time, str], ...]:
        """(when, label) of every queued event, sorted.

        Cached between queue mutations: the checker fingerprints the
        simulator once per tree node but the queue changes far less
        often.  A recomputation costs O(queued events).
        """
        sig = self._sig
        if sig is None:
            sig = tuple(sorted([(e[0], e[3]) for e in self._queue]))
            self._sig = sig
        return sig
