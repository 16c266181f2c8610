"""The MMU: TLB plus page-table walk plus access checks.

Every CPU memory instruction goes through :meth:`Mmu.translate`, which
returns both the physical address and the attributes the rest of the
pipeline needs (uncached?) plus the translation cost for the timing model.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from ..errors import PageFault, ProtectionFault
from ..units import Time
from .pagetable import PAGE_MASK, PageTable, Pte
from .tlb import Tlb


class Translation(NamedTuple):
    """The result of one MMU translation (built positionally once per
    simulated memory instruction, hence a tuple).

    Attributes:
        paddr: the physical address.
        pte: the page-table entry used.
        cost: time charged for the translation (TLB hit or walk).
        tlb_hit: whether the TLB satisfied the lookup.
    """

    paddr: int
    pte: Pte
    cost: Time
    tlb_hit: bool


class Mmu:
    """Per-CPU memory-management unit.

    The active page table is swapped by the scheduler on context switch
    (which also flushes the TLB).

    Args:
        tlb: the translation cache.
        hit_cost: time charged on a TLB hit (usually folded into the
            instruction's base cost, so 0 by default).
        walk_cost: time charged on a TLB miss for the hardware/PAL-assisted
            page-table walk.
    """

    def __init__(self, tlb: Tlb, hit_cost: Time = 0,
                 walk_cost: Time = 0) -> None:
        self.tlb = tlb
        self.hit_cost = hit_cost
        self.walk_cost = walk_cost
        self._table: Optional[PageTable] = None

    @property
    def page_table(self) -> Optional[PageTable]:
        """The currently active page table (None before first activation)."""
        return self._table

    def activate(self, table: PageTable, flush: bool = True) -> None:
        """Make *table* the active address space.

        Args:
            flush: flush the TLB (the conservative context-switch model).
        """
        self._table = table
        if flush:
            self.tlb.flush()

    def translate(self, vaddr: int, access: str,
                  user_mode: bool = True) -> Translation:
        """Translate *vaddr*, enforcing protection.

        Protection is enforced even on a TLB hit (the permission bits live
        in the cached PTE), exactly as real hardware does.

        Raises:
            PageFault / ProtectionFault: from the page table (or from the
                cached PTE's permission bits).
        """
        if self._table is None:
            raise RuntimeError("MMU has no active page table")
        pte = self.tlb.lookup(vaddr)
        if pte is not None:
            self._check(pte, vaddr, access, user_mode)
            return Translation(pte.pframe | (vaddr & PAGE_MASK), pte,
                               self.hit_cost, True)
        # Miss: walk the active table (raises on fault), then cache.
        paddr = self._table.translate(vaddr, access, user_mode)
        pte = self._table.lookup(vaddr)
        assert pte is not None  # translate() would have raised otherwise
        self.tlb.insert(vaddr, pte)
        return Translation(paddr, pte, self.hit_cost + self.walk_cost,
                           False)

    @staticmethod
    def _check(pte: Pte, vaddr: int, access: str, user_mode: bool) -> None:
        """Re-run protection checks against a TLB-cached PTE."""
        if user_mode:
            if not pte.user:
                raise PageFault(vaddr, access)
            if not pte.allows(access):
                raise ProtectionFault(vaddr, access)
