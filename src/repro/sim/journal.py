"""Shared undo journal: O(changes) snapshot/restore for the checker.

The incremental checker backtracks after every tree edge, usually
after a delivery that touched two scalars.  Rather than capturing every
component's state by value (O(total state) per edge), components
*record the old value of whatever they are about to mutate* into one
shared :class:`UndoJournal`; a snapshot is just a mark (the current
journal length), and restore replays the entries recorded since the
mark, newest first.  Cost is proportional to what actually changed,
not to what exists.

Two recording disciplines coexist, chosen per mutation site:

* **Per-mutation entries** for state that changes rarely (key-table
  writes, initiation-record appends, heap pushes): one entry per
  mutation, zero cost when the mutation never happens.
* **Per-epoch capture** for small hot state blobs (a protocol FSM's
  scalar tuple, a register context, the simulator clock): the first
  mutation after each :meth:`mark`/:meth:`undo_to` captures the whole
  blob once, and later mutations inside the same epoch are free.  Each
  capture site tests ``journal is not None and epoch != journal.epoch``
  inline before calling the capture, so a component with no journal,
  or one already captured this epoch, calls no journal code.  The
  blob holds references, not copies: the protocol state it captures
  (tuples, and dicts that every write replaces) is never mutated in
  place, so neither the capture nor the undo copies it.  The
  :attr:`epoch` counter increments on every mark *and* every undo, so a
  component comparing its stamped epoch against the journal's knows
  whether the current blob is already safely captured.  A blob is
  captured at the sites that mutate it, so an epoch pays only for the
  blobs it changed: the DMA engine captures one register context where
  it is written (context-page accesses, starts, keyed and capio
  argument stores, the kernel's context assignment, release and reset),
  never every context on every access.

A caller that opens epochs often may capture the hottest blobs itself
at the mark (:meth:`mark_with`) and stamp the components' epochs, so one
entry covers them all: the checker's harness opens every tree edge with
the simulator clock and the DMA engine's scalar blob in one entry
(:meth:`~repro.verify.interleave.ProtocolHarness.snapshot`).  An epoch
opened any other way (a bare :meth:`mark`, an :meth:`undo_to`) finds the
components unstamped, so they capture for themselves again.

Each entry is an ``(undo, arg)`` pair and replay calls ``undo(arg)`` —
one uniform step, no per-entry dispatch.  Correctness relies only on
replay happening newest-first, which makes redundant captures harmless:
the oldest capture since a mark is replayed last and wins.

Components opt in through ``bind_journal(journal)`` and must keep
working when no journal is bound (``None`` — the default everywhere
outside the checker, costing one branch per mutation site).  A
component that caches a value derived from journaled state must drop
the cache wherever that state changes, undo callbacks included: the
DMA engine's cached context fingerprint drops on every context capture,
on every context undo, and when a transfer's ``completed`` flag flips
(``DmaTransferEngine.flips``).
"""

from __future__ import annotations

from typing import Any, Callable, List, Tuple


class UndoJournal:
    """One shared mutation journal per checked component stack."""

    __slots__ = ("_ops", "epoch", "entries_recorded", "entries_replayed")

    def __init__(self) -> None:
        self._ops: List[Tuple[Callable[[Any], Any], Any]] = []
        #: Bumped on every mark and every undo; components stamp their
        #: per-epoch captures against it.
        self.epoch = 1
        self.entries_recorded = 0
        self.entries_replayed = 0

    def __len__(self) -> int:
        return len(self._ops)

    # -- marks ----------------------------------------------------------

    def mark(self) -> int:
        """O(1) snapshot: remember the journal length, open a new epoch."""
        self.epoch += 1
        return len(self._ops)

    def mark_with(self, undo: Callable[[Any], Any], arg: Any) -> int:
        """:meth:`mark`, with ``undo(arg)`` as the new epoch's first entry.

        For a caller that captures the hot state of several components
        itself when it opens an epoch, in one entry; it then stamps
        their epochs, so their own per-epoch captures stay silent.
        """
        self.epoch += 1
        ops = self._ops
        mark = len(ops)
        self.entries_recorded += 1
        ops.append((undo, arg))
        return mark

    def undo_to(self, mark: int) -> None:
        """Replay (and drop) every entry recorded since *mark*."""
        ops = self._ops
        count = len(ops) - mark
        if count > 0:
            self.entries_replayed += count
            for _ in range(count):
                undo, arg = ops.pop()
                undo(arg)
        self.epoch += 1

    # -- recording ------------------------------------------------------

    def record_append(self, lst: List[Any]) -> None:
        """Arrange for the append about to happen to be popped again."""
        self.entries_recorded += 1
        self._ops.append((list.pop, lst))

    def record_call(self, fn: Callable[[Any], None], arg: Any) -> None:
        """Arrange for ``fn(arg)`` to run on undo (component restore)."""
        self.entries_recorded += 1
        self._ops.append((fn, arg))
