"""The DMA data mover.

Once an initiation protocol has accepted a (source, destination, size)
triple, the :class:`DmaTransferEngine` performs the actual transfer in the
background: it models the transfer duration from a startup cost plus a
bandwidth term, schedules a completion event, and invokes a *mover*
callback that moves the bytes (a local RAM copy by default; the NIC
substitutes a network send for remote destinations).

Software observes progress exactly as §3.1 describes: a status read
returns the bytes still to be transferred, reaching 0 at completion.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ...errors import ConfigError
from ...obs.spans import SpanTracer
from ...sim.engine import Simulator
from ...sim.journal import UndoJournal
from ...units import Time, transfer_time

#: Moves the bytes when a transfer completes: (psrc, pdst, size) -> None.
MoverFn = Callable[[int, int, int], None]

#: Invoked after a transfer completes: (transfer) -> None.
CompletionFn = Callable[["Transfer"], None]

#: Fault-injection hook consulted when a transfer starts; returns None
#: (no fault) or ("drop" | "delay" | "duplicate", extra_time).
FaultHookFn = Callable[["Transfer"], Optional[Tuple[str, "Time"]]]

#: Completion time of a dropped completion: effectively never (~13 days
#: of simulated time), so status polls keep reporting bytes remaining
#: and bounded waits time out — the observable behaviour of a hung DMA.
NEVER_DURATION: Time = 1 << 60


@dataclass(slots=True)
class Transfer:
    """One in-flight or completed DMA transfer.

    Attributes:
        psrc / pdst: physical endpoints.
        size: bytes to move.
        started_at: simulation time the transfer began.
        duration: modelled transfer time.
        completed: set by the completion event.
    """

    psrc: int
    pdst: int
    size: int
    started_at: Time
    duration: Time
    completed: bool = False

    @property
    def completes_at(self) -> Time:
        """Absolute completion timestamp."""
        return self.started_at + self.duration

    def remaining(self, now: Time) -> int:
        """Bytes left to transfer as observed at time *now*.

        Progress is modelled as linear in time after the startup phase is
        folded in; the readout is what a §3.1 status poll returns.
        """
        if self.completed or now >= self.completes_at:
            return 0
        if now <= self.started_at or self.duration == 0:
            return self.size
        done_fraction = (now - self.started_at) / self.duration
        moved = int(self.size * done_fraction)
        return max(0, self.size - moved)


class DmaTransferEngine:
    """Schedules and performs DMA data movement.

    Args:
        sim: the event engine.
        bandwidth_bps: sustained transfer bandwidth in bits/second.
        startup: fixed per-transfer engine latency (arbitration, first
            descriptor fetch).
        mover: performs the byte movement at completion time.
    """

    def __init__(self, sim: Simulator, bandwidth_bps: float,
                 startup: Time, mover: MoverFn,
                 spans: Optional[SpanTracer] = None) -> None:
        if bandwidth_bps <= 0:
            raise ConfigError(
                f"bandwidth must be positive, got {bandwidth_bps}")
        if startup < 0:
            raise ConfigError(f"startup must be non-negative, got {startup}")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.startup = startup
        self._mover = mover
        #: Span tracer for per-transfer spans (disabled by default).
        self.spans = spans if spans is not None else SpanTracer(
            sim.time_source())
        self.transfers_started = 0
        self.bytes_moved = 0
        self.history: List[Transfer] = []
        #: Optional fault-injection hook (see repro.faults.injector);
        #: consulted once per started transfer.  Timed-simulation only —
        #: the checker harness injects faults at stream level instead,
        #: so the undo journal never needs to undo a hook decision.
        self.fault_hook: Optional[FaultHookFn] = None
        #: Initiation path of the most recent transfer ("kernel" or a
        #: user-level method name), set by DmaEngine.try_start so the
        #: fault hook can honour kernel immunity.
        self.last_via: Optional[str] = None
        # Shared undo journal (checker backtracking): None when unbound.
        self._undo: Optional[UndoJournal] = None
        self._j_epoch = 0
        # Prefix cache of fingerprint(): value tuples of history[:len].
        # History is append/truncate-only, so the cache keys on length;
        # a completion (which sets a ``completed`` flag) drops it.
        self._fp_hist: Tuple[tuple, ...] = ()
        # The queued completion event names this engine weakly: the
        # engine holds the simulator, so a strong reference would keep a
        # dropped machine or checker harness alive until the cyclic
        # collector ran.  One reference serves every transfer.
        self._self_ref = weakref.ref(self)
        #: ``(duration_of(size), completion event label)`` per transfer
        #: size, each built once.
        self._per_size: Dict[int, Tuple[Time, str]] = {}

    def bind_journal(self, journal: Optional[UndoJournal]) -> None:
        """Attach (or detach, with None) a shared undo journal.  Only a
        start is undone: no completion runs under a journal."""
        self._undo = journal
        self._j_epoch = 0
        self._fp_hist = ()

    def _j_scalars(self, journal: UndoJournal) -> None:
        """Capture what a start changes besides the history, once per
        journal epoch (callers test the epoch first)."""
        self._j_epoch = journal.epoch
        journal.record_call(self._restore_scalars,
                            (self.transfers_started, self.last_via))

    def _restore_scalars(self, blob: tuple) -> None:
        self.transfers_started, self.last_via = blob

    def drop_records(self) -> None:
        """Forget the transfer history (see
        :meth:`~repro.hw.dma.engine.DmaEngine.drop_records`);
        :attr:`transfers_started` and :attr:`bytes_moved` still count
        every transfer."""
        self.history.clear()
        self._fp_hist = ()

    def duration_of(self, size: int) -> Time:
        """Modelled duration of a *size*-byte transfer."""
        return self.startup + transfer_time(size, self.bandwidth_bps)

    def start(self, psrc: int, pdst: int, size: int,
              on_complete: Optional[CompletionFn] = None) -> Transfer:
        """Begin a transfer; returns its tracking object immediately.

        The byte movement and completion callback fire as a simulation
        event at the modelled completion time.

        Raises:
            ConfigError: if *size* is not positive (the initiation
                protocols reject bad sizes before reaching here).
        """
        if size <= 0:
            raise ConfigError(f"transfer size must be positive, got {size}")
        per_size = self._per_size.get(size)
        if per_size is None:
            per_size = self._per_size[size] = (
                self.duration_of(size), f"dma-complete[{size}B]")
        duration, label = per_size
        transfer = Transfer(psrc, pdst, size, self.sim.now, duration)
        journal = self._undo
        if journal is not None:
            if self._j_epoch != journal.epoch:
                self._j_scalars(journal)
            journal.record_append(self.history)
        self.transfers_started += 1
        if len(self._fp_hist) > len(self.history):
            # An undo truncated history below the cached prefix; the new
            # entry replaces a cached slot, so cut the cache back first.
            self._fp_hist = self._fp_hist[:len(self.history)]
        self.history.append(transfer)

        span = None
        if self.spans.enabled:
            # Background span: it ends at the completion event, long
            # after the initiating synchronous code has returned.
            span = self.spans.begin(
                "dma.transfer", track="engine", stack=False,
                psrc=psrc, pdst=pdst, size=size,
                via=self.last_via or "unknown")

        fault = (self.fault_hook(transfer)
                 if self.fault_hook is not None else None)
        if fault is not None and fault[0] == "drop":
            # Lost completion: the bytes never move, the status readout
            # never reaches zero, and no event fires.  Recovery is the
            # software's job (bounded waits + retry).  The span stays
            # open — exactly the hang the exporters flag.
            transfer.duration = NEVER_DURATION
            if span is not None:
                span.set(fault="drop")
            return transfer

        # A completion whose engine is gone does nothing.
        engine_ref = self._self_ref

        def complete() -> None:
            engine = engine_ref()
            if engine is None:
                return
            engine._mover(psrc, pdst, size)
            transfer.completed = True
            engine.bytes_moved += size
            engine._fp_hist = ()
            # A duplicated completion re-runs the mover; the span must
            # close exactly once.
            if span is not None and not span.closed:
                engine.spans.end(span, outcome="completed")
            if on_complete is not None:
                on_complete(transfer)

        if fault is not None and fault[0] == "delay":
            transfer.duration += fault[1]
        self.sim.schedule(transfer.duration, complete, label=label)
        if fault is not None and fault[0] == "duplicate":
            # A second, spurious completion event re-runs the mover (an
            # idempotent copy) — visible as double-counted bytes_moved.
            self.sim.schedule(transfer.duration + max(fault[1], 1),
                              complete, label=f"dma-complete-dup[{size}B]")
        return transfer

    def fingerprint(self) -> tuple:
        """Hashable value capture of every transfer plus the counters.

        The per-transfer value tuples are cached as a prefix keyed on the
        history length (history only ever appends or truncates); a
        completion, which sets a ``completed`` flag, drops the cache.
        """
        cached = self._fp_hist
        n = len(self.history)
        if len(cached) != n:
            if len(cached) > n:
                cached = cached[:n]
            else:
                cached = cached + tuple(
                    (t.psrc, t.pdst, t.size, t.started_at, t.duration,
                     t.completed) for t in self.history[len(cached):])
            self._fp_hist = cached
        return (self.transfers_started, self.bytes_moved, cached)
