"""Shared undo journal: O(changes) snapshot/restore for the checker.

The incremental checker backtracks after every tree edge, usually
after a delivery that touched two scalars.  Rather than capturing every
component's state by value (O(total state) per edge), components
*record the old value of whatever they are about to mutate* into one
shared :class:`UndoJournal`; a snapshot is a mark (the journal length
when the mark's own entry went in), and restore replays the entries
recorded since the mark, newest first.  Cost is proportional to what
actually changed, not to what exists.

One rule says where state is captured: **the mark captures the state
every edge changes; everything else is captured where it is mutated.**

* **At the mark.**  :meth:`UndoJournal.mark` takes the caller's capture
  as the new epoch's first entry.  The checker's harness passes the
  simulator clock and the DMA engine's scalar blob (its registers and
  the protocol FSM's state), which almost every delivery changes
  (:meth:`~repro.verify.interleave.ProtocolHarness.snapshot`).  That
  entry is the oldest since the mark, so undo replays it last and it
  wins over whatever changed that state inside the mark, deliveries
  after an inner undo included.  The caller passes the entry at each
  mark: a capture callback kept on the journal would hold the harness,
  which holds the journal.
* **Where mutated.**  State that changes rarely (key-table writes,
  initiation-record appends, heap pushes and pops) records one entry
  per mutation, at zero cost when the mutation never happens.  Small
  blobs that only some edges change (a register context, a RAM page,
  the transfer engine's counters) are captured once per epoch: the
  first mutation after each :meth:`mark`/:meth:`undo_to` captures the
  whole blob, and later mutations inside the same epoch are free.  The
  :attr:`epoch` counter increments on every mark *and* every undo, so a
  component comparing its stamped epoch against the journal's knows
  whether the current blob is already safely captured.  A blob holds
  references, not copies: the protocol state (tuples, and dicts that
  every write replaces) is never mutated in place, so neither the
  capture nor the undo copies it.

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

    def mark(self, undo: Callable[[Any], Any], arg: Any) -> int:
        """O(1) snapshot: open a new epoch whose first entry is
        ``undo(arg)``, the caller's capture of the state every edge
        changes; returns the token :meth:`undo_to` takes."""
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
