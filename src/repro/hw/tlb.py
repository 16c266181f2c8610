"""A small fully associative TLB with LRU replacement.

The TLB matters to the reproduction for two reasons: it is part of the
timing model (TLB hits make the user-level shadow accesses cheap; kernel
entry costs include TLB effects folded into the syscall constant), and it is
flushed on context switch (the Alpha 21064 has address-space numbers, but
the conservative flush model is sufficient here and slightly *favours* the
kernel-level baseline, making the reproduced gap a lower bound).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from ..errors import ConfigError
from .pagetable import Pte, vpn_of


class Tlb:
    """Fully associative, LRU-replaced translation cache.

    Attributes:
        capacity: number of entries (Alpha 21064 DTB: 32).
        hits / misses: lookup outcome counters.
    """

    def __init__(self, capacity: int = 32) -> None:
        if capacity <= 0:
            raise ConfigError(f"TLB capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.flushes = 0
        #: vpn -> PTE, least recently used first.  :meth:`Mmu.translate`
        #: probes it directly, keeping the counters and LRU order as
        #: :meth:`lookup` and :meth:`insert` do.
        self._entries: "OrderedDict[int, Pte]" = OrderedDict()

    def lookup(self, vaddr: int) -> Optional[Pte]:
        """Return the cached PTE for *vaddr*'s page, updating LRU order."""
        vpn = vpn_of(vaddr)
        pte = self._entries.get(vpn)
        if pte is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(vpn)
        return pte

    def insert(self, vaddr: int, pte: Pte) -> None:
        """Cache *pte* for *vaddr*'s page, evicting LRU if full."""
        vpn = vpn_of(vaddr)
        if vpn in self._entries:
            self._entries.move_to_end(vpn)
        self._entries[vpn] = pte
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def invalidate(self, vaddr: int) -> bool:
        """Drop the entry for *vaddr*'s page.  Returns whether it existed."""
        return self._entries.pop(vpn_of(vaddr), None) is not None

    def flush(self) -> None:
        """Drop every entry (context switch)."""
        self.flushes += 1
        self._entries.clear()

    @property
    def occupancy(self) -> int:
        """Number of live entries."""
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit (0.0 when no lookups yet)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
