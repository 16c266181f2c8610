"""IOMMU virtual-address DMA initiation.

The two-instruction extended-shadow sequence (§3.2), but the argument a
process names is its own **virtual** buffer address (an IOVA), not a
physical one:

* ``STORE size TO shadow(vdestination)`` — latches (destination IOVA,
  size) in the register context named by the shadow address bits;
* ``LOAD FROM shadow(vsource)`` — pairs the load's source IOVA with the
  latch of the same context and attempts the start.

At start time the engine walks the kernel-managed per-context I/O page
table (:class:`~repro.hw.iommu.Iommu`): both ranges must translate with
the needed permission, or the initiation is aborted with **nothing
moved** — the same all-or-nothing contract as the ``page_bounded``
hardening.  Translations are cached in a small IOTLB; the kernel's
unmap explicitly shoots the stale entry down.

Construct with ``shootdown=False`` for the deliberately-weakened
variant (``iommu_noshootdown``): unmap removes the page-table entry but
leaves any cached IOTLB translation to rot, so a context that recently
used a since-revoked mapping can keep transferring through it.  The
synthesis hunt must rediscover that as UNSAFE.

Setup ops (kernel-side, untimed — see :class:`~repro.hw.dma.recognizer.
SetupOp`):

* ``("iommu-map", (ctx_id, iova_page, phys_page, writable))``
* ``("iommu-unmap", (ctx_id, iova_page))``
* ``("iommu-warm", (ctx_id, iova_page))`` — pre-fill the IOTLB,
  modelling translation traffic from earlier DMA activity;
* ``("iommu-inval", ())`` or ``("iommu-inval", (ctx_id,))`` — explicit
  IOTLB invalidation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ....errors import ConfigError
from ...iommu import Iommu
from ..recognizer import (
    InitiationProtocol,
    SetupOp,
    ShadowAccess,
    without_key,
)
from ..status import STATUS_FAILURE


@dataclass
class _Latch:
    iova_dst: int
    size: int


class IommuProtocol(InitiationProtocol):
    """Two-instruction initiation over IOVAs with engine-side translation."""

    def __init__(self, shootdown: bool = True) -> None:
        super().__init__()
        self.name = "iommu" if shootdown else "iommu_noshootdown"
        self.shootdown = shootdown
        self.iommu = Iommu(shootdown=shootdown)
        self.translation_faults = 0
        self.ctx_mismatches = 0
        self.empty_loads = 0
        # Replaced on every write, never mutated in place, so a snapshot
        # holds it by reference.
        self._latches: Dict[int, _Latch] = {}

    # -- the shadow region -------------------------------------------------

    def on_shadow_store(self, access: ShadowAccess) -> None:
        if access.ctx_id >= self.engine.layout.n_contexts:
            self.ctx_mismatches += 1
            return
        self._latches = {**self._latches, access.ctx_id: _Latch(
            iova_dst=access.paddr, size=access.data)}

    def on_shadow_load(self, access: ShadowAccess) -> int:
        latch = self._latches.get(access.ctx_id)
        if latch is None:
            self.empty_loads += 1
            return STATUS_FAILURE
        self._latches = without_key(self._latches, access.ctx_id)
        pdst = self.iommu.translate(access.ctx_id, latch.iova_dst,
                                    latch.size, write=True)
        psrc = self.iommu.translate(access.ctx_id, access.paddr,
                                    latch.size, write=False)
        if pdst is None or psrc is None:
            # Translation fault: abort with nothing moved — no start
            # attempt ever reaches the mover or the record log.
            self.translation_faults += 1
            return STATUS_FAILURE
        engine = self.engine
        ctx = None
        if access.ctx_id < engine.layout.n_contexts:
            ctx = engine.contexts[access.ctx_id]
        return engine.try_start(psrc=psrc, pdst=pdst, size=latch.size,
                                ctx=ctx, issuer=access.issuer)

    # -- kernel-managed setup ----------------------------------------------

    def apply_setup(self, op: SetupOp) -> None:
        if op.kind == "iommu-map":
            ctx_id, iova_page, phys_page, writable = op.args
            self.iommu.map(ctx_id, iova_page, phys_page, writable)
        elif op.kind == "iommu-unmap":
            ctx_id, iova_page = op.args
            self.iommu.unmap(ctx_id, iova_page)
        elif op.kind == "iommu-warm":
            ctx_id, iova_page = op.args
            self.iommu.warm(ctx_id, iova_page)
        elif op.kind == "iommu-inval":
            self.iommu.invalidate(*op.args)
        else:
            raise ConfigError(
                f"protocol {self.name} accepts no setup op {op.kind!r}")

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        self.iommu = Iommu(shootdown=self.shootdown)
        self.translation_faults = 0
        self.ctx_mismatches = 0
        self.empty_loads = 0
        self._latches = {}

    def state_label(self) -> str:
        """Which contexts currently hold an (IOVA destination, size) latch."""
        if not self._latches:
            return "idle"
        return "latched:" + ",".join(
            str(ctx_id) for ctx_id in sorted(self._latches))

    # -- snapshot/restore --------------------------------------------------

    def snapshot_state(self):
        # Neither the latch table nor a _Latch is ever mutated after
        # creation (writes replace them), so a reference suffices; the
        # IOMMU snapshots its tables, IOTLB order, and counters.
        return (self._latches, self.iommu.snapshot(),
                self.translation_faults, self.ctx_mismatches,
                self.empty_loads)

    def restore_state(self, state) -> None:
        latches, iommu_state, faults, mismatches, empty = state
        self._latches = latches
        self.iommu.restore(iommu_state)
        self.translation_faults = faults
        self.ctx_mismatches = mismatches
        self.empty_loads = empty

    def state_fingerprint(self):
        return (tuple(sorted(
                    (ctx_id, latch.iova_dst, latch.size)
                    for ctx_id, latch in self._latches.items())),
                self.iommu.fingerprint())
