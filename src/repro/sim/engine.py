"""The discrete-event simulation engine.

A :class:`Simulator` owns the global clock (integer picoseconds) and a
pending-event store split into two tiers:

* a **slotted event wheel** — a ring of coarse time buckets covering the
  near future (``wheel_slots * 2**wheel_granularity_bits`` picoseconds
  from the current wheel base).  Scheduling into the wheel is an O(1)
  list append; draining scans forward from the current slot, so densely
  scheduled workloads (the NOW fabric, bulk DMA completions) never pay
  heap maintenance.  A slot's list is allocated on first use, so a
  simulator that schedules little (the checker builds thousands)
  allocates little;
* a **far heap** — the classic binary heap, holding only events beyond
  the wheel horizon (long timeouts, the "never" sentinel of dropped
  completions).  As the clock advances the wheel rebase migrates heap
  events that have come within the horizon into the wheel.

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

Determinism: events fire in ``(when, seq)`` order (``seq`` is a
monotonically increasing insertion number), so identical inputs replay
identically regardless of which tier an event sat in.

:class:`Event` instances are ``__slots__``-backed, and events scheduled
with ``transient=True`` (fire-and-forget callbacks whose handle nobody
retains) are recycled through a free list after firing, so hot loops do
not allocate one object per event.  Recycling is off while an undo
journal is bound, because the journal holds references to fired events.

The incremental model checker backtracks through
:meth:`Simulator.bind_journal`, which switches the simulator to
O(changes) undo journaling (see :mod:`repro.sim.journal`).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from ..errors import SimulationError
from ..units import Time
from .journal import UndoJournal


class Event:
    """A scheduled callback.

    Events order by ``(when, seq)``; ``seq`` is assigned by the simulator
    so same-time events fire first-scheduled-first.  Cancelled events stay
    in their bucket (wheel slot or heap) but are skipped when reached; the
    owning simulator is notified through ``on_cancel`` so its live-event
    count stays exact without scanning, and so an undo journal can record
    the flag flip.

    Attributes mirror the former dataclass fields; ``__slots__`` keeps
    the per-event footprint small and attribute access fast on the
    scheduling hot path.
    """

    __slots__ = ("when", "seq", "action", "label", "cancelled",
                 "on_cancel", "transient")

    def __init__(self, when: Time, seq: int,
                 action: Callable[[], None], label: str = "",
                 cancelled: bool = False,
                 on_cancel: Optional[Callable[["Event"], None]] = None,
                 transient: bool = False) -> None:
        self.when = when
        self.seq = seq
        self.action = action
        self.label = label
        self.cancelled = cancelled
        self.on_cancel = on_cancel
        self.transient = transient

    def __lt__(self, other: "Event") -> bool:
        if self.when != other.when:
            return self.when < other.when
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " cancelled" if self.cancelled else ""
        return f"<Event when={self.when} seq={self.seq} {self.label!r}{flag}>"

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent.

        The owner notification runs *before* the flag flips so a bound
        undo journal records the pre-cancellation value.
        """
        if self.cancelled:
            return
        if self.on_cancel is not None:
            self.on_cancel(self)
        self.cancelled = True


class Simulator:
    """Event wheel + far heap plus the global simulated clock.

    Args:
        wheel_granularity_bits: log2 of the wheel slot width in
            picoseconds.  The default (2**18 ps ≈ 262 ns per slot) puts
            typical DMA completion latencies a handful of slots out.
        wheel_slots: number of wheel slots (power of two).  With the
            defaults the wheel covers ~67 µs; anything later goes to the
            far heap until the wheel base catches up.

    Attributes:
        now: current simulated time in integer picoseconds.
    """

    def __init__(self, wheel_granularity_bits: int = 18,
                 wheel_slots: int = 256) -> None:
        if wheel_slots <= 0 or wheel_slots & (wheel_slots - 1):
            raise SimulationError(
                f"wheel_slots must be a power of two, got {wheel_slots}")
        if wheel_granularity_bits < 0:
            raise SimulationError(
                f"wheel_granularity_bits must be >= 0, "
                f"got {wheel_granularity_bits}")
        self.now: Time = 0
        self._seq = 0
        self._events_fired = 0
        self._live = 0
        # -- wheel geometry --
        self._gran_bits = wheel_granularity_bits
        self._slot_mask = wheel_slots - 1
        self._n_slots = wheel_slots
        self._span: Time = wheel_slots << wheel_granularity_bits
        self._wheel_base: Time = 0
        self._horizon: Time = self._span
        self._slots: List[Optional[List[Event]]] = [None] * wheel_slots
        self._wheel_count = 0   # entries in slots, cancelled included
        self._far: List[Event] = []
        # -- head cache: earliest live event, or None when dirty/empty --
        self._head: Optional[Event] = None
        self._head_dirty = False
        # -- live_event_signature cache: dropped on any queue change --
        self._sig: Optional[Tuple[Tuple[Time, str], ...]] = None
        # -- free list --
        self._free: List[Event] = []
        # -- undo journal --
        self._journal: Optional[UndoJournal] = None
        self._j_epoch = 0

    # -- journaling -----------------------------------------------------

    def bind_journal(self, journal: Optional[UndoJournal]) -> None:
        """Attach (or detach, with None) a shared undo journal.

        While bound, every mutation records its undo into the journal, so
        ``journal.undo_to(mark)`` returns the clock and event store to
        their state at ``mark = journal.mark()`` at O(changes) cost.
        Event recycling is disabled while a journal is bound (undo
        entries hold references to fired events).
        """
        self._journal = journal
        self._j_epoch = 0

    def _j_state(self) -> None:
        """Once per journal epoch, capture the scalar clock/counter blob."""
        journal = self._journal
        if journal is not None and self._j_epoch != journal.epoch:
            self._j_epoch = journal.epoch
            journal.record_call(self._restore_scalars, (
                self.now, self._seq, self._events_fired, self._live,
                self._wheel_base, self._horizon, self._wheel_count))

    def _restore_scalars(self, blob: Tuple[Any, ...]) -> None:
        (self.now, self._seq, self._events_fired, self._live,
         self._wheel_base, self._horizon, self._wheel_count) = blob
        self._head = None
        self._head_dirty = True

    def _j_unplace(self, event: Event) -> None:
        """Undo of a push: remove *event* from whichever tier holds it."""
        self._discard(event)
        self._head = None
        self._head_dirty = True

    def _j_place(self, event: Event) -> None:
        """Undo of a pop: put *event* back (tier chosen by its when)."""
        self._place(event)
        self._head = None
        self._head_dirty = True

    # -- placement ------------------------------------------------------

    def _place(self, event: Event) -> None:
        """Insert into the wheel (near) or the far heap (beyond horizon)."""
        self._sig = None
        if event.when < self._horizon:
            index = (event.when >> self._gran_bits) & self._slot_mask
            slot = self._slots[index]
            if slot is None:
                self._slots[index] = [event]  # allocated on first use
            else:
                slot.append(event)
            self._wheel_count += 1
        else:
            heapq.heappush(self._far, event)
        head = self._head
        if not self._head_dirty and (head is None or event < head):
            self._head = event

    def _unslot(self, event: Event) -> bool:
        """Remove *event* from its wheel slot; False when it is not there
        (migrated to the far heap by a rebase race)."""
        slot = self._slots[(event.when >> self._gran_bits) & self._slot_mask]
        if slot is None:
            return False
        try:
            slot.remove(event)
        except ValueError:
            return False
        self._wheel_count -= 1
        return True

    def _discard(self, event: Event) -> None:
        """Remove a specific event from its tier (undo/pop helper)."""
        self._sig = None
        if event.when < self._horizon and self._unslot(event):
            return
        try:
            self._far.remove(event)
        except ValueError:
            return
        heapq.heapify(self._far)

    def _rebase(self) -> None:
        """Advance the wheel window to the current clock.

        Live wheel events always sit at ``when >= now`` (the event loop
        never lets the clock pass an unfired live event), so rebasing
        re-places every surviving entry into the new window and migrates
        far-heap events that have come within the horizon.  Cancelled
        stragglers from old laps are dropped here.
        """
        base = (self.now >> self._gran_bits) << self._gran_bits
        if base <= self._wheel_base:
            return
        self._j_state()
        survivors: List[Event] = []
        if self._wheel_count:
            for slot in self._slots:
                if slot:
                    survivors.extend(e for e in slot if not e.cancelled)
                    slot.clear()
        self._wheel_base = base
        self._horizon = base + self._span
        self._wheel_count = 0
        far = self._far
        while far and far[0].when < self._horizon:
            event = heapq.heappop(far)
            if not event.cancelled:
                survivors.append(event)
        for event in survivors:
            self._place(event)
        self._head = None
        self._head_dirty = True

    def _recompute_head(self) -> Optional[Event]:
        """Find the earliest live event across both tiers."""
        if self.now >= self._horizon:
            self._rebase()
        best: Optional[Event] = None
        if self._wheel_count:
            start = max(self.now, self._wheel_base) >> self._gran_bits
            mask = self._slot_mask
            slots = self._slots
            for index in range(start, start + self._n_slots):
                slot = slots[index & mask]
                if not slot:
                    continue
                for event in slot:
                    if not event.cancelled and (best is None
                                                or event < best):
                        best = event
                if best is not None:
                    break
        far = self._far
        while far and far[0].cancelled:
            # Journaled so an undo can revive the (then-cancelled) event.
            dead = heapq.heappop(far)
            if self._journal is not None:
                self._j_state()
                self._journal.record_call(self._j_place, dead)
        if far and (best is None or far[0] < best):
            best = far[0]
        self._head = best
        self._head_dirty = best is None
        return best

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: Time, action: Callable[[], None],
                 label: str = "", transient: bool = False) -> Event:
        """Schedule *action* to run *delay* ps from now.

        Args:
            transient: promise that no caller retains the returned event
                (e.g. to cancel it later); such events are recycled
                through a free list after firing.

        Raises:
            SimulationError: if *delay* is negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        return self.call_at(self.now + delay, action, label, transient)

    def call_at(self, when: Time, action: Callable[[], None],
                label: str = "", transient: bool = False) -> Event:
        """Schedule *action* at absolute time *when*.

        Raises:
            SimulationError: if *when* is before the current time.
        """
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at {when} before now={self.now}")
        if self._free:
            event = self._free.pop()
            event.when = when
            event.seq = self._seq
            event.action = action
            event.label = label
            event.cancelled = False
            event.on_cancel = self._note_cancelled
            event.transient = transient
        else:
            event = Event(when=when, seq=self._seq, action=action,
                          label=label, on_cancel=self._note_cancelled,
                          transient=transient)
        self._seq += 1
        journal = self._journal
        if journal is not None:
            self._j_state()
            journal.record_call(self._j_unplace, event)
        self._place(event)
        self._live += 1
        return event

    def _note_cancelled(self, event: Event) -> None:
        # Runs before the cancelled flag flips, so the journal captures
        # the pre-cancellation state.
        journal = self._journal
        if journal is not None:
            self._j_state()
            journal.record_call(self._j_uncancel, event)
        self._live -= 1
        self._sig = None
        if not self._head_dirty and event is self._head:
            self._head = None
            self._head_dirty = True

    def _j_uncancel(self, event: Event) -> None:
        """Undo of a cancel (the scalar blob restores the counters)."""
        event.cancelled = False
        self._sig = None
        self._head = None
        self._head_dirty = True

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
        if self._live:
            self._drain_until(target)
        if self._journal is not None:
            self._j_state()
        self.now = target
        return self.now

    # -- event loop -----------------------------------------------------------

    def step(self) -> bool:
        """Fire the single next pending event.

        Returns:
            True if an event fired, False if the queue was empty.
        """
        event = self._peek()
        if event is None:
            return False
        if event.when < self.now:
            raise SimulationError(
                f"event {event.label!r} scheduled at {event.when} "
                f"popped after now={self.now}")
        journal = self._journal
        if journal is not None:
            self._j_state()
            journal.record_call(self._j_place, event)
        self._remove_head(event)
        self.now = event.when
        self._live -= 1
        self._events_fired += 1
        event.action()
        if event.transient and journal is None and len(self._free) < 1024:
            event.action = _NOOP
            event.on_cancel = None
            self._free.append(event)
        return True

    def _remove_head(self, event: Event) -> None:
        """Pop *event*, known to be the current head, from its tier."""
        if event.when >= self._horizon or not self._unslot(event):
            heapq.heappop(self._far)
        self._sig = None
        self._head = None
        self._head_dirty = True

    def run(self, until: Optional[Time] = None,
            max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, *until* passes, or a budget hits.

        Args:
            until: absolute deadline; events after it stay queued and the
                clock is left at the deadline (if any events remain) or at
                the last fired event.
            max_events: stop after firing this many events.

        Returns:
            The number of events fired.
        """
        fired = 0
        while True:
            if max_events is not None and fired >= max_events:
                break
            head = self._peek()
            if head is None:
                break
            if until is not None and head.when > until:
                if self._journal is not None:
                    self._j_state()
                self.now = max(self.now, until)
                break
            if self.step():
                fired += 1
        if until is not None and self._live == 0:
            if self._journal is not None:
                self._j_state()
            self.now = max(self.now, until)
        return fired

    def run_until(self, when: Time) -> int:
        """Run all events up to and including absolute time *when*."""
        fired = self.run(until=when)
        if self._journal is not None:
            self._j_state()
        self.now = max(self.now, when)
        return fired

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
        while True:
            head = self._peek()
            if head is None:
                return predicate()
            if deadline is not None and head.when > deadline:
                if self._journal is not None:
                    self._j_state()
                self.now = deadline
                return predicate()
            self.step()
            if predicate():
                return True

    # -- introspection --------------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.

        Maintained as a counter updated on push, pop, and cancel, so the
        read is O(1) rather than a scan of the wheel and heap.
        """
        return self._live

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
        """(when, label) of every live queued event, in firing order.

        Cached between queue mutations: the checker fingerprints the
        simulator once per tree node but the queue changes far less
        often.  A recomputation costs O(live events).
        """
        sig = self._sig
        if sig is None:
            sig = tuple(sorted((e.when, e.label)
                               for e in self._live_events()))
            self._sig = sig
        return sig

    def _live_events(self) -> List[Event]:
        """Every live queued event, both tiers, any order.

        Live wheel events sit at ``when >= now``, so the walk starts at
        the current slot and stops once it has seen all ``_live`` of
        them: it visits the slots up to the last live event, never the
        whole wheel.
        """
        events = [e for e in self._far if not e.cancelled]
        missing = self._live - len(events)
        if missing > 0:
            start = max(self.now, self._wheel_base) >> self._gran_bits
            mask = self._slot_mask
            slots = self._slots
            for index in range(start, start + self._n_slots):
                slot = slots[index & mask]
                if not slot:
                    continue
                for event in slot:
                    if not event.cancelled:
                        events.append(event)
                        missing -= 1
                if missing <= 0:
                    break
        return events

    def _peek(self) -> Optional[Event]:
        """Return the next live event without popping, or None."""
        if not self._head_dirty and self._head is not None:
            return self._head
        if self._live == 0:
            return None
        return self._recompute_head()

    def _drain_until(self, target: Time) -> None:
        """Fire every live event with timestamp <= target."""
        while True:
            head = self._peek()
            if head is None or head.when > target:
                return
            self.step()


def _NOOP() -> None:  # pragma: no cover - free-list placeholder
    return None
