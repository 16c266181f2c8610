"""Page tables and protection bits.

The paper's protection argument rests entirely on page-granularity virtual
memory: the OS creates mappings (including *shadow* mappings into the DMA
engine's physical window), and the hardware enforces read/write permissions
on every access.  We model an Alpha-style 8 KiB page.

A :class:`PageTable` is a per-process map from virtual page number to
:class:`Pte`.  PTEs carry the physical frame base, permission bits, and a
``user`` bit (kernel-only mappings are invisible to user mode — this is how
the key table inside the DMA engine stays unreadable, §3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Flag, auto
from typing import Dict, Iterator, Optional, Tuple

from ..errors import AddressError, PageFault, ProtectionFault

#: Alpha 21064 page size: 8 KiB.
PAGE_SHIFT = 13
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1


class Perm(Flag):
    """Page permission bits."""

    NONE = 0
    READ = auto()
    WRITE = auto()
    RW = READ | WRITE


# The members as plain module names: ``Pte.allows`` runs on every
# simulated memory access, and comparing identities costs a few
# nanoseconds where ``Flag`` arithmetic costs about a microsecond.
_READ, _WRITE, _RW = Perm.READ, Perm.WRITE, Perm.RW


@dataclass(frozen=True)
class Pte:
    """A page-table entry.

    Attributes:
        pframe: physical base address of the mapped frame (page-aligned).
        perm: permission bits for user-mode accesses.
        user: whether user mode may use this mapping at all.
        uncached: whether accesses through this mapping bypass the cache
            (device/MMIO mappings — all shadow mappings are uncached).
    """

    pframe: int
    perm: Perm
    user: bool = True
    uncached: bool = False

    def __post_init__(self) -> None:
        if self.pframe & PAGE_MASK:
            raise AddressError(
                f"PTE frame {self.pframe:#x} is not page-aligned")

    def allows(self, access: str) -> bool:
        """Whether this PTE permits *access* ("read" or "write")."""
        perm = self.perm
        if access == "read":
            return perm is _RW or perm is _READ
        if access == "write":
            return perm is _RW or perm is _WRITE
        raise ValueError(f"unknown access kind {access!r}")


def vpn_of(vaddr: int) -> int:
    """Virtual page number containing *vaddr*."""
    return vaddr >> PAGE_SHIFT


def page_base(addr: int) -> int:
    """The page-aligned base of the page containing *addr*."""
    return addr & ~PAGE_MASK


def page_offset(addr: int) -> int:
    """The offset of *addr* within its page."""
    return addr & PAGE_MASK


def pages_covering(addr: int, nbytes: int) -> Iterator[int]:
    """Yield the VPNs of every page touched by [addr, addr+nbytes)."""
    if nbytes <= 0:
        raise AddressError(f"range length must be positive, got {nbytes}")
    first = vpn_of(addr)
    last = vpn_of(addr + nbytes - 1)
    yield from range(first, last + 1)


class PageTable:
    """A per-process virtual-to-physical mapping.

    The table is sparse (dict-backed) and enforces page alignment on both
    sides of every mapping.
    """

    def __init__(self, owner: str = "") -> None:
        self.owner = owner
        self._entries: Dict[int, Pte] = {}

    # -- construction ---------------------------------------------------------

    def map_page(self, vaddr: int, pte: Pte) -> None:
        """Install *pte* for the page containing *vaddr*.

        Raises:
            AddressError: if *vaddr* is not page-aligned or already mapped.
        """
        if vaddr & PAGE_MASK:
            raise AddressError(f"map of unaligned vaddr {vaddr:#x}")
        vpn = vpn_of(vaddr)
        if vpn in self._entries:
            raise AddressError(
                f"vaddr {vaddr:#x} already mapped in {self.owner or 'table'}")
        self._entries[vpn] = pte

    def map_range(self, vaddr: int, paddr: int, nbytes: int, perm: Perm,
                  user: bool = True, uncached: bool = False) -> None:
        """Map a contiguous range of whole pages.

        Raises:
            AddressError: on misalignment or a partial-page length.
        """
        if vaddr & PAGE_MASK or paddr & PAGE_MASK:
            raise AddressError(
                f"range map must be page-aligned: v={vaddr:#x} p={paddr:#x}")
        if nbytes <= 0 or nbytes & PAGE_MASK:
            raise AddressError(
                f"range length must be a positive page multiple: {nbytes}")
        for offset in range(0, nbytes, PAGE_SIZE):
            self.map_page(vaddr + offset,
                          Pte(paddr + offset, perm, user, uncached))

    def unmap_page(self, vaddr: int) -> Pte:
        """Remove and return the mapping for the page containing *vaddr*.

        Raises:
            PageFault: if the page is not mapped.
        """
        vpn = vpn_of(vaddr)
        if vpn not in self._entries:
            raise PageFault(vaddr, "unmap")
        return self._entries.pop(vpn)

    def protect_page(self, vaddr: int, perm: Perm) -> None:
        """Change the permissions of an existing mapping.

        Raises:
            PageFault: if the page is not mapped.
        """
        vpn = vpn_of(vaddr)
        if vpn not in self._entries:
            raise PageFault(vaddr, "protect")
        old = self._entries[vpn]
        self._entries[vpn] = Pte(old.pframe, perm, old.user, old.uncached)

    # -- lookup ---------------------------------------------------------------

    def lookup(self, vaddr: int) -> Optional[Pte]:
        """Return the PTE for *vaddr*'s page, or None if unmapped."""
        return self._entries.get(vpn_of(vaddr))

    def translate(self, vaddr: int, access: str,
                  user_mode: bool = True) -> int:
        """Translate *vaddr* with protection checks.

        Args:
            vaddr: the virtual address.
            access: "read" or "write".
            user_mode: whether the access comes from user mode; kernel mode
                bypasses the user bit and permission checks (the kernel has
                already done its own checking, as in Fig. 1's pseudo-code).

        Returns:
            The physical address.

        Raises:
            PageFault: if the page is unmapped (or kernel-only in user mode).
            ProtectionFault: if the permission bits deny the access.
        """
        pte = self.lookup(vaddr)
        if pte is None:
            raise PageFault(vaddr, access)
        if user_mode:
            if not pte.user:
                raise PageFault(vaddr, access)
            if not pte.allows(access):
                raise ProtectionFault(vaddr, access)
        return pte.pframe | page_offset(vaddr)

    def check_range(self, vaddr: int, nbytes: int, access: str) -> None:
        """Verify an entire byte range is mapped with *access* permission.

        This is the kernel's ``check_size()`` from Fig. 1: before starting a
        kernel-level DMA the OS validates every page in the transfer.

        Raises:
            PageFault / ProtectionFault: on the first offending page.
        """
        for vpn in pages_covering(vaddr, nbytes):
            self.translate(vpn << PAGE_SHIFT, access, user_mode=True)

    def mapped_pages(self) -> Iterator[Tuple[int, Pte]]:
        """Yield (vpn, pte) pairs for every mapping, in VPN order."""
        for vpn in sorted(self._entries):
            yield vpn, self._entries[vpn]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, vaddr: int) -> bool:
        return vpn_of(vaddr) in self._entries
