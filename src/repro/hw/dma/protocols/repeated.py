"""Repeated passing of arguments (§3.3, Figs. 5-7).

The engine watches the raw stream of shadow accesses for a fixed
STORE/LOAD pattern in which the two argument addresses are passed
*repeatedly*; the DMA starts only when every repetition matches.  A
process that was preempted mid-sequence almost certainly leaves a broken
pattern behind, so no mixed-argument DMA fires — and the legitimate
process simply retries on DMA_FAILURE (Fig. 7's loop).

Three variants, selectable with ``length``:

* ``3`` — Dubnicki's original LOAD / STORE / LOAD with matching first and
  third addresses.  **Exploitable** (Fig. 5): an adversary can complete a
  stale prefix and direct the victim's destination at its own source.
* ``4`` — STORE / LOAD / STORE / LOAD.  Safe against address mixing but an
  adversary with read access to the source can *steal the start* and leave
  the victim believing the DMA failed (Fig. 6).
* ``5`` — STORE / LOAD / STORE / LOAD / LOAD, destination passed three
  times, source twice (Fig. 7).  The paper's §3.3.1 argument (checked
  exhaustively by :mod:`repro.verify.model_check`) shows any started DMA
  had all five accesses issued by one process.

State-machine conventions:

* Any access that breaks the expected pattern resets the recognizer, and
  the breaking access is then reconsidered as the possible first access of
  a fresh attempt (a store for the 4/5-variants, a load for the
  3-variant).
* In-sequence intermediate loads return the distinguished
  :data:`STATUS_PENDING` word; pattern-breaking loads return
  :data:`STATUS_FAILURE`; the final load returns the start status (bytes
  remaining).  PENDING must be distinguishable from a started transfer or
  an adversary can fabricate a phantom success (see
  repro.hw.dma.status).
* The size word must repeat along with the destination address (the paper
  only states the address constraint; requiring the size to match as well
  strictly strengthens the check and costs nothing).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ....errors import ConfigError
from ..recognizer import InitiationProtocol, ShadowAccess
from ..status import STATUS_FAILURE, STATUS_PENDING

#: op pattern per variant: 'S' = shadow store, 'L' = shadow load.
_PATTERNS = {
    3: ("L", "S", "L"),
    4: ("S", "L", "S", "L"),
    5: ("S", "L", "S", "L", "L"),
}


class RepeatedPassingProtocol(InitiationProtocol):
    """The repeated-argument-passing sequence recognizer.

    Args:
        length: 3, 4, or 5 — the variant.
        require_size_repeat: also require the size word to repeat with
            the destination address (the default, and our strengthening
            of the paper's address-only constraint).  Disabling it
            models a paper-literal engine; the ablation tests show such
            an engine can fire with a *stale* size when a process
            abandons an attempt and restarts with a different length —
            a self-inflicted overrun the strict check prevents.
    """

    def __init__(self, length: int = 5,
                 require_size_repeat: bool = True) -> None:
        super().__init__()
        if length not in _PATTERNS:
            raise ConfigError(
                f"repeated-passing variant must be 3, 4, or 5, got {length}")
        self.length = length
        self.require_size_repeat = require_size_repeat
        self.name = f"repeated{length}"
        self.pattern: Tuple[str, ...] = _PATTERNS[length]
        self.resets = 0
        self.sequences_completed = 0
        #: Per completed sequence, the issuer pids of its five (or 3/4)
        #: accesses — tracing/verification only, never used by the FSM.
        self.completed_contributors: List[Tuple[Optional[int], ...]] = []
        # Length-keyed prefix cache of tuple(completed_contributors) for
        # state_fingerprint (the log only appends, or truncates on undo).
        self._completed_fp: Tuple[Tuple[Optional[int], ...], ...] = ()
        self._pos = 0
        self._src: Optional[int] = None
        self._dst: Optional[int] = None
        self._size: Optional[int] = None
        # Replaced, never mutated, so a snapshot can hold it by reference.
        self._issuers: Tuple[Optional[int], ...] = ()

    # ------------------------------------------------------------------

    def on_shadow_store(self, access: ShadowAccess) -> None:
        if self.pattern[self._pos] != "S" or not self._store_matches(access):
            self._reset_state()
            # A store can always open a fresh attempt in the S-first
            # variants; in the L-first variant it just resets.
            if self.pattern[0] != "S":
                return
        self._accept_store(access)

    def on_shadow_load(self, access: ShadowAccess) -> int:
        if self.pattern[self._pos] != "L" or not self._load_matches(access):
            self._reset_state()
            if self.pattern[0] != "L":
                return STATUS_FAILURE
            # The 3-variant starts with a load: reconsider this access as
            # a fresh attempt's first instruction.
            self._accept_load_slot(access)
            return STATUS_PENDING
        return self._accept_load(access)

    # ------------------------------------------------------------------
    # pattern matching
    # ------------------------------------------------------------------

    def _store_matches(self, access: ShadowAccess) -> bool:
        """Whether an in-turn store satisfies the repetition constraints."""
        if self._dst is None:
            # First store of the attempt (position 0 in the S-first
            # variants, position 1 in the L-first 3-variant).
            return True
        # Every later store must repeat the latched destination (and,
        # under the strict check, the size word too).
        if access.paddr != self._dst:
            return False
        return (not self.require_size_repeat
                or access.data == self._size)

    def _load_matches(self, access: ShadowAccess) -> bool:
        """Whether an in-turn load satisfies the repetition constraints."""
        expected = self._expected_load_addr()
        return expected is None or access.paddr == expected

    def _expected_load_addr(self) -> Optional[int]:
        """Which address the load at the current position must repeat."""
        if self.length == 3:
            # L S L : the final load repeats the first load's source.
            return self._src if self._pos == 2 else None
        if self.length == 4:
            # S L S L : the final load repeats the source.
            return self._src if self._pos == 3 else None
        # S L S L L : load@3 repeats the source, load@4 the destination.
        if self._pos == 3:
            return self._src
        if self._pos == 4:
            return self._dst
        return None

    # ------------------------------------------------------------------
    # acceptance
    # ------------------------------------------------------------------

    def _accept_store(self, access: ShadowAccess) -> None:
        if self._dst is None:
            self._dst = access.paddr
            self._size = access.data
        self._pos += 1
        self._issuers += (access.issuer,)
        # Stores never terminate a pattern in any variant.

    def _accept_load(self, access: ShadowAccess) -> int:
        self._accept_load_slot(access)
        if self._pos < self.length:
            return STATUS_PENDING
        # Pattern complete: fire (a completion is not a "reset").
        psrc, pdst, size = self._src, self._dst, self._size
        contributors = self._issuers
        self._clear_state()
        self.sequences_completed += 1
        self.completed_contributors.append(contributors)
        assert psrc is not None and pdst is not None and size is not None
        return self.engine.try_start(psrc=psrc, pdst=pdst, size=size,
                                     issuer=access.issuer)

    def _accept_load_slot(self, access: ShadowAccess) -> None:
        if self._source_slot():
            self._src = access.paddr
        self._pos += 1
        self._issuers += (access.issuer,)

    def _source_slot(self) -> bool:
        """Whether the load at the current position defines the source."""
        if self.length == 3:
            return self._pos == 0
        return self._pos == 1

    def _reset_state(self) -> None:
        if self._pos != 0:
            self.resets += 1
        self._clear_state()

    def _clear_state(self) -> None:
        self._pos = 0
        self._src = None
        self._dst = None
        self._size = None
        self._issuers = ()

    def reset(self) -> None:
        self._clear_state()
        self.resets = 0
        self.sequences_completed = 0
        self.completed_contributors = []
        self._completed_fp = ()

    # ------------------------------------------------------------------

    def state_snapshot(self) -> List[Optional[int]]:
        """(pos, src, dst, size) — inspection hook for tests."""
        return [self._pos, self._src, self._dst, self._size]

    def state_label(self) -> str:
        """Recognizer position plus which arguments are latched."""
        if self._pos == 0:
            return "idle"
        latched = ("S" if self._src is not None else "-") + (
            "D" if self._dst is not None else "-")
        return f"pos{self._pos}/{self.length}:{latched}"

    # -- snapshot/restore -----------------------------------------------

    def snapshot_state(self):
        # _issuers is an immutable tuple, captured by reference;
        # completed_contributors is append-only: capture its length and
        # truncate on restore instead of copying the whole list.
        return (self._pos, self._src, self._dst, self._size,
                self._issuers, self.resets,
                self.sequences_completed, len(self.completed_contributors))

    def restore_state(self, state) -> None:
        (self._pos, self._src, self._dst, self._size, self._issuers,
         self.resets, self.sequences_completed, n_completed) = state
        del self.completed_contributors[n_completed:]
        if len(self._completed_fp) > n_completed:
            # The cache held entries the undo just removed; a later
            # append of the same length must not reuse them.
            self._completed_fp = self._completed_fp[:n_completed]

    def state_fingerprint(self):
        # The in-progress pattern state and the completed-contributor
        # history both matter: the former drives future transitions, the
        # latter feeds the single-issuer property at every leaf.  The
        # resets/sequences_completed counters are pure statistics.
        completed = self._completed_fp
        log = self.completed_contributors
        if len(completed) != len(log):
            completed = self._completed_fp = (
                completed + tuple(log[len(completed):]))
        return (self._pos, self._src, self._dst, self._size,
                self._issuers, completed)
