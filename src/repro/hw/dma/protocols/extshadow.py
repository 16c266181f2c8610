"""Extended shadow addressing (§3.2, Fig. 4).

The OS embeds a small CONTEXT_ID in the *physical* side of every shadow
mapping it creates for a process, so every shadow access arrives at the
engine already labelled with the issuing process's context — no kernel
hook, no key, and only two instructions:

* ``STORE size TO shadow(vdestination)`` — latches (destination, size)
  in the register context named by the address bits;
* ``LOAD FROM shadow(vsource)`` — pairs the load's source with the latch
  *of the same context* and starts the DMA.

A process cannot forge another CONTEXT_ID because it simply has no virtual
mapping carrying those address bits; the MMU is the guard.

The paper also sketches a context-less engine that latches a single pair
and compares the CONTEXT_ID bits of the store and load, rejecting on
mismatch; construct with ``per_context=False`` to get that variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..recognizer import InitiationProtocol, ShadowAccess, without_key
from ..status import STATUS_FAILURE


@dataclass
class _Latch:
    pdst: int
    size: int
    ctx_id: int


class ExtendedShadowProtocol(InitiationProtocol):
    """Two-instruction initiation keyed by CONTEXT_ID address bits."""

    name = "extshadow"

    def __init__(self, per_context: bool = True) -> None:
        super().__init__()
        self.per_context = per_context
        self.ctx_mismatches = 0
        self.empty_loads = 0
        # Replaced on every write, never mutated in place, so a snapshot
        # holds it by reference.
        self._latches: Dict[int, _Latch] = {}
        self._single: Optional[_Latch] = None

    def on_shadow_store(self, access: ShadowAccess) -> None:
        latch = _Latch(pdst=access.paddr, size=access.data,
                       ctx_id=access.ctx_id)
        if self.per_context:
            if access.ctx_id >= self.engine.layout.n_contexts:
                self.ctx_mismatches += 1
                return
            self._latches = {**self._latches, access.ctx_id: latch}
        else:
            self._single = latch

    def on_shadow_load(self, access: ShadowAccess) -> int:
        if self.per_context:
            latch = self._latches.get(access.ctx_id)
            if latch is None:
                self.empty_loads += 1
                return STATUS_FAILURE
            self._latches = without_key(self._latches, access.ctx_id)
        else:
            latch, self._single = self._single, None
            if latch is None:
                self.empty_loads += 1
                return STATUS_FAILURE
            if latch.ctx_id != access.ctx_id:
                # §3.2: "If they are different, the DMA operation is not
                # started and an error code is returned".
                self.ctx_mismatches += 1
                return STATUS_FAILURE
        engine = self.engine
        ctx = None
        if access.ctx_id < engine.layout.n_contexts:
            ctx = engine.contexts[access.ctx_id]
        return engine.try_start(
            psrc=access.paddr, pdst=latch.pdst, size=latch.size,
            ctx=ctx, issuer=access.issuer)

    def reset(self) -> None:
        self.ctx_mismatches = 0
        self.empty_loads = 0
        self._latches = {}
        self._single = None

    def state_label(self) -> str:
        """Which contexts currently hold a (destination, size) latch."""
        if self.per_context:
            if not self._latches:
                return "idle"
            return "latched:" + ",".join(
                str(ctx_id) for ctx_id in sorted(self._latches))
        return "latched" if self._single is not None else "idle"

    def snapshot_state(self):
        # Neither the latch table nor a _Latch is ever mutated after
        # creation (writes replace them), so references suffice.
        return (self._latches, self._single,
                self.ctx_mismatches, self.empty_loads)

    def restore_state(self, state) -> None:
        (self._latches, self._single, self.ctx_mismatches,
         self.empty_loads) = state

    def state_fingerprint(self):
        single = (None if self._single is None else
                  (self._single.pdst, self._single.size,
                   self._single.ctx_id))
        return (tuple(sorted(
                    (ctx_id, latch.pdst, latch.size, latch.ctx_id)
                    for ctx_id, latch in self._latches.items())),
                single)
