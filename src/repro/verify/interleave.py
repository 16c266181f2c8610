"""Protocol-level replay harness and interleaving enumeration.

Works directly against a fresh :class:`~repro.hw.dma.engine.DmaEngine`
(no CPU, no scheduler): each :class:`AccessSpec` is delivered to the
engine entry point the MMIO decoder would hand that bus access to
(``shadow_store``, ``context_load``, ...).  This is the right level for exhaustive checking — the paper's §3.3.1 argument is
about the order in which accesses *reach the engine*, nothing else.

The enumerator yields **every** interleaving of the given streams
(preserving each stream's internal order), so a scenario with a
5-access victim and a 3-access adversary is checked over all
C(8,3) = 56 orders; Fig. 8's three-adversary worst case is a few
thousand.  Counts stay exact and tractable because the streams are short
— exactly the sizes the paper reasons about.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import VerificationError
from ..hw.dma.engine import DmaEngine
from ..hw.dma.protocols.keyed import (
    ARG_DESTINATION,
    ARG_SOURCE,
    pack_key_word,
)
from ..hw.dma.recognizer import SetupOp
from ..hw.dma.shadow import ShadowLayout
from ..hw.memory import PhysicalMemory
from ..sim.engine import Simulator
from ..sim.journal import UndoJournal
from ..units import kib
from .properties import ReplayEvidence


@dataclass(frozen=True)
class AccessSpec:
    """One access a process will issue, protocol-level.

    Attributes:
        pid: issuing process.
        op: "store", "load", "exchange" (shadow region) or
            "ctx-store" / "ctx-load" (the process's register-context
            page).
        paddr: argument physical address (shadow ops) — ignored for
            context-page ops.
        data: data word for stores/exchanges.
        ctx_id: CONTEXT_ID — the address bits for shadow ops under
            extended shadow encoding, or the context page index for
            ctx ops.  The harness delivers the fields as already
            decoded, so they must be what the engine's MMIO decoder
            could produce: a context page the engine has, a CONTEXT_ID
            that fits the shadow address, a non-negative argument.
        final: marks the access whose status is the process's verdict.
    """

    pid: int
    op: str
    paddr: int = 0
    data: int = 0
    ctx_id: int = 0
    final: bool = False


class ProtocolHarness:
    """A bare engine + one protocol, driven access-by-access."""

    def __init__(self, protocol_factory, n_contexts: int = 4,
                 ram_size: int = kib(64),
                 page_bounded: bool = False) -> None:
        self.protocol_factory = protocol_factory
        self.n_contexts = n_contexts
        self.ram_size = ram_size
        self.page_bounded = page_bounded
        self._keys: Dict[int, int] = {}
        self._setups: List[SetupOp] = []
        self.journal: Optional[UndoJournal] = None
        self.reset()

    def reset(self) -> None:
        """Fresh simulator, RAM, engine, and protocol (keys and setup
        ops re-applied).  The new stack is unjournaled until the next
        :meth:`snapshot`."""
        self.sim = Simulator()
        self.ram = PhysicalMemory(self.ram_size)
        ctx_bits = max(1, (self.n_contexts - 1).bit_length())
        self.layout = ShadowLayout(n_contexts=self.n_contexts,
                                   ctx_bits=ctx_bits)
        self.protocol = self.protocol_factory()
        self.engine = DmaEngine(self.sim, self.ram, self.protocol,
                                layout=self.layout,
                                page_bounded=self.page_bounded)
        for ctx_id, key in self._keys.items():
            self.engine.install_key(ctx_id, key)
        for op in self._setups:
            self.protocol.apply_setup(op)
        self.journal = None

    # -- delivery ----------------------------------------------------------

    def deliver(self, access: AccessSpec) -> Optional[int]:
        """Deliver one access; returns the status for loads, else None.

        The spec's fields are the decoded access, so it goes straight to
        the engine's decoded entry point (no shadow offset is built and
        taken apart again), with the spec's pid as the issuer and the
        clock before this delivery as its time.
        """
        route = _ROUTES.get(access.op)
        if route is None:
            raise VerificationError(f"unknown access op {access.op!r}")
        sim = self.sim
        when = sim.now
        sim.advance(1)  # keep timestamps strictly ordered
        return route(self.engine, access, when)

    def replay(self, interleaving: Sequence[AccessSpec]) -> ReplayEvidence:
        """Reset and replay one interleaving, collecting evidence."""
        self.reset()
        evidence = ReplayEvidence()
        for access in interleaving:
            status = self.deliver(access)
            if access.final and status is not None:
                evidence.final_status[access.pid] = status
        evidence.records = list(self.engine.initiations)
        contributors = getattr(self.protocol, "completed_contributors", None)
        if contributors is not None:
            evidence.contributors = [tuple(p for p in pids)
                                     for pids in contributors]
        authority = getattr(self.protocol, "completed_authority", None)
        if authority is not None:
            evidence.authority = list(authority)
        return evidence

    def install_key(self, ctx_id: int, key: int) -> None:
        """Install a key (survives replay resets via re-registration)."""
        self._keys[ctx_id] = key
        self.engine.install_key(ctx_id, key)

    def install_setup(self, op: SetupOp) -> None:
        """Apply a privileged setup op (re-applied on every reset)."""
        self._setups.append(op)
        self.protocol.apply_setup(op)

    # -- snapshot/restore --------------------------------------------------

    def bind_journal(self) -> UndoJournal:
        """The stack's shared undo journal, bound to the simulator and
        the engine on first use (the first :meth:`snapshot` binds it
        too).  Binding records nothing and opens no epoch.  RAM needs
        no journal: its only writer is the data mover, which runs only
        from a completion event, and a journaled simulator fires none.

        Raises:
            ConfigError: if the engine's span tracer is enabled (a
                journaled engine records no spans); nothing is bound.
        """
        journal = self.journal
        if journal is None:
            journal = UndoJournal()
            self.engine.bind_journal(journal)
            self.sim.bind_journal(journal)
            self.journal = journal
        return journal

    def snapshot(self) -> int:
        """Mark the whole component stack (sim, engine, protocol).

        The incremental checker snapshots before each delivery and
        restores on backtrack, so each access is delivered once per tree
        edge instead of once per interleaving it appears in.  The first
        snapshot after a reset binds one shared undo journal to the
        stack; from then on every mutation records its undo.

        The mark's one entry holds the state every delivery changes:
        the simulator's clock and push counter and the engine's scalars
        (its registers and the protocol FSM's state).  Everything else
        is captured where it is mutated (see :mod:`repro.sim.journal`).

        Raises:
            ConfigError: on the binding snapshot, as :meth:`bind_journal`.
        """
        journal = self.journal
        if journal is None:
            journal = self.bind_journal()
        sim = self.sim
        engine = self.engine
        return journal.mark(_restore_edge, (
            sim, sim.now, sim._seq, engine, engine._scalar_state()))

    def restore(self, token: int) -> None:
        """Undo every mutation made since :meth:`snapshot` returned
        *token*."""
        self.journal.undo_to(token)

    def fingerprint(self) -> tuple:
        """Hashable capture of all behaviour-determining harness state.

        RAM and the event queue need no part: nothing fires under the
        journal, so RAM keeps its bind-time bytes and the queue holds
        one ``(started_at + duration, "dma-complete[<size>B]")`` per
        started transfer (no fault hook is installed), all named by the
        engine's transfer history.
        """
        return (self.sim.now, self.engine.fingerprint())


def _restore_edge(entry: tuple) -> None:
    """Undo of the entry :meth:`ProtocolHarness.snapshot` marks an edge
    with: the simulator's clock and push counter, then the engine's
    scalar blob."""
    sim, now, seq, engine, scalars = entry
    sim.now, sim._seq = now, seq
    engine._restore_scalar_state(scalars)


#: op -> delivery of an :class:`AccessSpec` to the engine's decoded
#: entry point, as a user-mode access by the spec's pid at time *when*
#: (context-page ops address the size/status register, at page offset
#: 0).
_ROUTES = {
    "store": lambda engine, a, when: engine.shadow_store(
        a.ctx_id, a.paddr, a.data, a.pid, False, when),
    "load": lambda engine, a, when: engine.shadow_load(
        a.ctx_id, a.paddr, a.pid, False, when),
    "exchange": lambda engine, a, when: engine.shadow_exchange(
        a.ctx_id, a.paddr, a.data, a.pid, False, when),
    "ctx-store": lambda engine, a, when: engine.context_store(
        a.ctx_id, 0, a.data, a.pid, False, when),
    "ctx-load": lambda engine, a, when: engine.context_load(
        a.ctx_id, 0, a.pid, False, when),
}


# ----------------------------------------------------------------------
# interleaving enumeration
# ----------------------------------------------------------------------


def enumerate_interleavings(
        streams: Sequence[Sequence[AccessSpec]],
) -> Iterator[Tuple[AccessSpec, ...]]:
    """Yield every interleaving of *streams*, each stream kept in order.

    The number of results is the multinomial coefficient
    ``(sum of lengths)! / prod(lengths!)``.  Each order is a tuple copy
    of what :func:`iter_interleavings_shared` yields, in the same order.
    """
    for order in iter_interleavings_shared(streams):
        yield tuple(order)


def iter_interleavings_shared(
        streams: Sequence[Sequence[AccessSpec]],
) -> Iterator[List[AccessSpec]]:
    """Yield every interleaving of *streams* as one *shared* list.

    The same list object is yielded for every interleaving and mutated
    in place between yields, so no per-order tuple is allocated; callers
    that retain an order (e.g. as a violation example) must copy it
    first (``tuple(order)``), as :func:`enumerate_interleavings` does.
    """
    lengths = [len(s) for s in streams]
    yield from _extend_shared(streams, lengths, [0] * len(streams), [],
                              sum(lengths))


def _extend_shared(streams: Sequence[Sequence[AccessSpec]],
                   lengths: List[int], positions: List[int],
                   prefix: List[AccessSpec],
                   total: int) -> Iterator[List[AccessSpec]]:
    """Yield every completion of *prefix* (a module-level recursion: a
    self-referencing closure would be a reference cycle)."""
    if len(prefix) == total:
        yield prefix
        return
    for index, stream in enumerate(streams):
        pos = positions[index]
        if pos < lengths[index]:
            prefix.append(stream[pos])
            positions[index] = pos + 1
            yield from _extend_shared(streams, lengths, positions, prefix,
                                      total)
            positions[index] = pos
            prefix.pop()


def interleaving_count(lengths: Sequence[int]) -> int:
    """How many interleavings ``enumerate_interleavings`` will yield."""
    total = sum(lengths)
    result = _factorial(total)
    for length in lengths:
        result //= _factorial(length)
    return result


@lru_cache(maxsize=None)
def _factorial(n: int) -> int:
    return 1 if n <= 1 else n * _factorial(n - 1)


# ----------------------------------------------------------------------
# stream builders: one initiation, method by method, at FSM level
# ----------------------------------------------------------------------


def initiation_stream(method: str, pid: int, psrc: int, pdst: int,
                      size: int, key: Optional[int] = None,
                      ctx_id: int = 0,
                      src_token: Optional[int] = None,
                      dst_token: Optional[int] = None) -> List[AccessSpec]:
    """The shadow-access stream one initiation of *method* produces.

    Mirrors :meth:`repro.core.api.DmaChannel.sequence` at the level the
    engine sees (physical shadow arguments, no retry loop).  The last
    load is marked ``final`` so properties can read the process's
    verdict.

    For the iommu methods *psrc*/*pdst* are IOVAs (the engine
    translates); for the capio methods they are byte offsets into the
    source/destination capabilities' buffers and the pre-packed
    ``src_token``/``dst_token`` words (see :func:`~repro.hw.dma.
    protocols.capio.pack_cap_word`) must be supplied.
    """
    if method in ("shrimp2", "flash", "pal"):
        return [
            AccessSpec(pid, "store", pdst, size),
            AccessSpec(pid, "load", psrc, final=True),
        ]
    if method in ("extshadow", "iommu", "iommu_noshootdown"):
        return [
            AccessSpec(pid, "store", pdst, size, ctx_id=ctx_id),
            AccessSpec(pid, "load", psrc, ctx_id=ctx_id, final=True),
        ]
    if method in ("capio", "capio_noepoch"):
        if src_token is None or dst_token is None:
            raise VerificationError("capio streams need capability tokens")
        return [
            AccessSpec(pid, "store", pdst, dst_token),
            AccessSpec(pid, "store", psrc, src_token),
            AccessSpec(pid, "ctx-store", data=size, ctx_id=ctx_id),
            AccessSpec(pid, "ctx-load", ctx_id=ctx_id, final=True),
        ]
    if method == "keyed":
        if key is None:
            raise VerificationError("keyed streams need a key")
        return [
            AccessSpec(pid, "store", pdst,
                       pack_key_word(key, ctx_id, ARG_DESTINATION)),
            AccessSpec(pid, "store", psrc,
                       pack_key_word(key, ctx_id, ARG_SOURCE)),
            AccessSpec(pid, "ctx-store", data=size, ctx_id=ctx_id),
            AccessSpec(pid, "ctx-load", ctx_id=ctx_id, final=True),
        ]
    if method == "shrimp1":
        return [AccessSpec(pid, "exchange", psrc, size, final=True)]
    if method == "repeated3":
        return [
            AccessSpec(pid, "load", psrc),
            AccessSpec(pid, "store", pdst, size),
            AccessSpec(pid, "load", psrc, final=True),
        ]
    if method == "repeated4":
        return [
            AccessSpec(pid, "store", pdst, size),
            AccessSpec(pid, "load", psrc),
            AccessSpec(pid, "store", pdst, size),
            AccessSpec(pid, "load", psrc, final=True),
        ]
    if method == "repeated5":
        return [
            AccessSpec(pid, "store", pdst, size),
            AccessSpec(pid, "load", psrc),
            AccessSpec(pid, "store", pdst, size),
            AccessSpec(pid, "load", psrc),
            AccessSpec(pid, "load", pdst, final=True),
        ]
    raise VerificationError(f"no stream builder for method {method!r}")
