"""Physical memory and frame allocation.

:class:`PhysicalMemory` is a flat byte-addressable RAM starting at physical
address 0.  The DMA engine's data mover reads and writes it directly (that
is the whole point of DMA), and tests verify end-to-end data integrity
through it.  A machine-sized RAM costs only the pages that are touched:
from :data:`LAZY_ZERO_MIN_BYTES` up its bytes live in a private anonymous
mapping, whose zero pages the OS supplies on first touch; smaller RAMs
(the checker's harnesses) stay a ``bytearray``.  Both read and write the
same way.

:class:`FrameAllocator` hands out page frames to the OS's virtual-memory
manager.
"""

from __future__ import annotations

import functools
import mmap
from typing import List, Union

from ..errors import AddressError, MemoryError_
from .pagetable import PAGE_MASK, PAGE_SIZE

#: Width of a machine word (Alpha: 64-bit).
WORD_BYTES = 8
WORD_MASK = (1 << 64) - 1

#: RAM of at least this many bytes is a private anonymous ``mmap``, zero
#: pages supplied by the OS on first touch, instead of a ``bytearray``
#: that CPython zero-fills up front (a 16 MiB shard: ~11 ms and 16 MiB of
#: RSS at build, of which a soak round touches ~3 MiB).  Below it, the
#: mapping's fixed cost wins: creating and touching one costs ~19 us
#: against ~3 us for a 64 KiB ``bytearray``, and the checker builds
#: thousands of 64 KiB harness RAMs (mmap at every size cost verify ~2 %).
LAZY_ZERO_MIN_BYTES = 1 << 20


def ramp(start: int, step: int, nbytes: int) -> bytes:
    """The test pattern ``bytes((start + step*i) % 256 for i in range(nbytes))``.

    The pattern depends only on ``start % 256``, ``step % 256`` and
    *nbytes*, and is immutable, so callers share one object per
    distinct pattern (up to :data:`RAMP_CACHE_SIZE` of them): a service
    shard's tenants hold 256 sources and 256 canaries between them, not
    two private copies each.
    """
    return _ramp(start % 256, step % 256, nbytes)


#: Distinct ramps kept for sharing: a service shard's tenant sources
#: (step 1) and canaries (step 13) are 256 patterns each.
RAMP_CACHE_SIZE = 512


@functools.lru_cache(maxsize=RAMP_CACHE_SIZE)
def _ramp(start: int, step: int, nbytes: int) -> bytes:
    # The sequence repeats every 256 bytes, so only one period is built
    # byte by byte; the rest is repetition and slicing done in C.
    period = bytes([(start + step * i) % 256 for i in range(256)])
    return (period * (nbytes // 256 + 1))[:nbytes]


class PhysicalMemory:
    """Flat RAM at physical [0, size).

    All bulk operations are bounds-checked; word operations additionally
    require natural alignment, as the Alpha does.
    """

    def __init__(self, size: int) -> None:
        if size <= 0 or size & PAGE_MASK:
            raise MemoryError_(
                f"RAM size must be a positive page multiple, got {size}")
        self.size = size
        self._data: Union[bytearray, mmap.mmap] = (
            mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
            if size >= LAZY_ZERO_MIN_BYTES else bytearray(size))

    # -- range helpers --------------------------------------------------------

    def _check_range(self, paddr: int, nbytes: int, op: str) -> None:
        if nbytes < 0:
            raise AddressError(f"{op}: negative length {nbytes}")
        if paddr < 0 or paddr + nbytes > self.size:
            raise MemoryError_(
                f"{op}: [{paddr:#x}, {paddr + nbytes:#x}) outside RAM "
                f"of size {self.size:#x}")

    def contains(self, paddr: int, nbytes: int = 1) -> bool:
        """Whether [paddr, paddr+nbytes) lies entirely inside RAM."""
        return 0 <= paddr and paddr + nbytes <= self.size and nbytes >= 1

    # -- byte access ------------------------------------------------------------

    def read(self, paddr: int, nbytes: int) -> bytes:
        """Read *nbytes* starting at *paddr*."""
        if nbytes < 0 or paddr < 0 or paddr + nbytes > self.size:
            self._check_range(paddr, nbytes, "read")
        return bytes(self._data[paddr:paddr + nbytes])

    def write(self, paddr: int, data: bytes) -> None:
        """Write *data* starting at *paddr*."""
        end = paddr + len(data)
        if paddr < 0 or end > self.size:
            self._check_range(paddr, len(data), "write")
        self._data[paddr:end] = data

    def fill(self, paddr: int, nbytes: int, value: int = 0) -> None:
        """Fill a range with a repeated byte value."""
        if not 0 <= value <= 0xFF:
            raise ValueError(f"fill value must be a byte, got {value}")
        self._check_range(paddr, nbytes, "fill")
        self._data[paddr:paddr + nbytes] = bytes([value]) * nbytes

    def copy(self, psrc: int, pdst: int, nbytes: int) -> None:
        """Copy *nbytes* from *psrc* to *pdst* (overlap-safe).

        This is the primitive the DMA data mover uses.
        """
        self._check_range(psrc, nbytes, "copy-src")
        self._check_range(pdst, nbytes, "copy-dst")
        self._data[pdst:pdst + nbytes] = self._data[psrc:psrc + nbytes]

    # -- word access --------------------------------------------------------------

    def read_word(self, paddr: int) -> int:
        """Read a naturally aligned 64-bit little-endian word."""
        if paddr % WORD_BYTES:
            raise AddressError(f"unaligned word read at {paddr:#x}")
        if paddr < 0 or paddr + WORD_BYTES > self.size:
            self._check_range(paddr, WORD_BYTES, "read")
        return int.from_bytes(self._data[paddr:paddr + WORD_BYTES], "little")

    def write_word(self, paddr: int, value: int) -> None:
        """Write a naturally aligned 64-bit little-endian word."""
        if paddr % WORD_BYTES:
            raise AddressError(f"unaligned word write at {paddr:#x}")
        self.write(paddr, (value & WORD_MASK).to_bytes(WORD_BYTES, "little"))


class FrameAllocator:
    """Hands out physical page frames from a RAM region.

    Frames are allocated low-to-high; freed frames are reused LIFO.  The OS
    reserves an initial region for itself (kernel text/data) by allocating
    from a non-zero base.
    """

    def __init__(self, base: int, size: int) -> None:
        if base & PAGE_MASK or size & PAGE_MASK:
            raise MemoryError_(
                f"allocator region must be page-aligned: "
                f"base={base:#x} size={size:#x}")
        if size <= 0:
            raise MemoryError_(f"allocator region must be non-empty: {size}")
        self.base = base
        self.limit = base + size
        self._next = base
        self._free: List[int] = []
        self._outstanding = 0

    @property
    def total_frames(self) -> int:
        """Total frames managed by this allocator."""
        return (self.limit - self.base) // PAGE_SIZE

    @property
    def frames_in_use(self) -> int:
        """Frames currently allocated."""
        return self._outstanding

    @property
    def contiguous_frames_left(self) -> int:
        """Frames :meth:`alloc_contiguous` can still hand out (the
        never-allocated tail)."""
        return (self.limit - self._next) // PAGE_SIZE

    def alloc_frame(self) -> int:
        """Allocate one frame; returns its physical base address.

        Raises:
            MemoryError_: when the region is exhausted.
        """
        self._outstanding += 1
        if self._free:
            return self._free.pop()
        if self._next >= self.limit:
            self._outstanding -= 1
            raise MemoryError_("out of physical frames")
        frame = self._next
        self._next += PAGE_SIZE
        return frame

    def alloc_contiguous(self, npages: int) -> int:
        """Allocate *npages* physically contiguous frames.

        Contiguity can only be guaranteed from the never-allocated tail,
        so this ignores the free list.

        Raises:
            MemoryError_: when the tail cannot satisfy the request.
        """
        if npages <= 0:
            raise MemoryError_(f"npages must be positive, got {npages}")
        nbytes = npages * PAGE_SIZE
        if self._next + nbytes > self.limit:
            raise MemoryError_(
                f"cannot allocate {npages} contiguous frames")
        base = self._next
        self._next += nbytes
        self._outstanding += npages
        return base

    def free_frame(self, frame: int) -> None:
        """Return one frame to the allocator.

        Raises:
            MemoryError_: if the frame is outside the region or unaligned.
        """
        if frame & PAGE_MASK or not self.base <= frame < self.limit:
            raise MemoryError_(f"bogus frame free: {frame:#x}")
        if self._outstanding <= 0:
            raise MemoryError_("double free: no frames outstanding")
        self._outstanding -= 1
        self._free.append(frame)


def make_ram_and_allocator(size: int,
                           reserved: int = 0,
                           ) -> "tuple[PhysicalMemory, FrameAllocator]":
    """Convenience: build RAM plus an allocator skipping *reserved* bytes."""
    ram = PhysicalMemory(size)
    if reserved & PAGE_MASK:
        raise MemoryError_(f"reserved must be page-aligned, got {reserved}")
    allocator = FrameAllocator(reserved, size - reserved)
    return ram, allocator
