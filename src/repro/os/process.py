"""Processes: address spaces plus the DMA/atomic resources the OS granted.

A :class:`Process` owns a page table and a simple bump allocator for
user virtual addresses.  The OS records in the process the
user-level DMA resources it handed out — the method, the register-context
id, the secret key, and where the context page is mapped — because user
code needs those values to build its initiation sequences (the paper:
"The key is given to the user process by the operating system").

Virtual-address layout (all constants page-aligned)::

    USER_BASE          0x0000_0000_0001_0000   data buffers grow upward
    CTX_PAGE_VADDR     0x0000_0400_0000_0000   the register-context page
    ATOMIC_CTX_VADDR   CTX_PAGE_VADDR + PAGE   the atomic-context page
    SHADOW_VOFFSET     0x0000_1000_0000_0000   shadow(v) = v + offset
    ATOMIC_VOFFSET     0x0000_2000_0000_0000   atomic shadow of (op, v) =
                                               v + offset + op * OP_STRIDE

Fixed offsets make shadow addresses *computable* by user code (and by the
two-instruction PAL function, which must derive ``shadow(vaddr)`` from a
register argument with a single displacement).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import KernelError
from ..hw.cpu import Thread
from ..hw.isa import Program
from ..hw.pagetable import PAGE_MASK, PAGE_SIZE, PageTable, Perm

USER_BASE = 0x0000_0000_0001_0000
CTX_PAGE_VADDR = 0x0000_0400_0000_0000
ATOMIC_CTX_VADDR = CTX_PAGE_VADDR + PAGE_SIZE
#: Base of the capio offset window: page k maps shadow offset k*PAGE,
#: so a store to ``window + offset`` presents *offset* to the engine.
CAPIO_WINDOW_VADDR = CTX_PAGE_VADDR + 2 * PAGE_SIZE
SHADOW_VOFFSET = 0x0000_1000_0000_0000
ATOMIC_VOFFSET = 0x0000_2000_0000_0000
ATOMIC_OP_STRIDE = 0x0000_0100_0000_0000


def shadow_vaddr(vaddr: int) -> int:
    """The virtual address of the shadow image of *vaddr*."""
    return vaddr + SHADOW_VOFFSET


def atomic_shadow_vaddr(op: int, vaddr: int) -> int:
    """The virtual address of the atomic-unit shadow of (*op*, *vaddr*)."""
    return vaddr + ATOMIC_VOFFSET + op * ATOMIC_OP_STRIDE


@dataclass
class Buffer:
    """A user buffer the kernel allocated.

    Attributes:
        vaddr: user virtual base.
        paddr: physical base (physically contiguous).
        size: bytes (whole pages).
        perm: user permissions on the data pages.
        shadowed: whether shadow mappings were created for it.
    """

    vaddr: int
    paddr: int
    size: int
    perm: Perm
    shadowed: bool = False


@dataclass(frozen=True)
class CapabilityDescriptor:
    """What the kernel hands user code about one minted capability.

    The secret nonce makes tokens built from the descriptor validate;
    ``epoch`` is the epoch the capability was minted under — after a
    revocation the kernel's table moves on and tokens built from this
    (now stale) descriptor stop validating.
    """

    cap_id: int
    nonce: int
    epoch: int
    vaddr: int
    size: int


@dataclass
class DmaBinding:
    """User-level DMA resources granted to a process.

    Attributes:
        method: initiation method name (see repro.core.methods).
        ctx_id: assigned register context, if the method uses one.
        key: the secret key, if the method uses one.
        shadow_ctx_bits: CONTEXT_ID embedded in this process's shadow
            mappings (0 unless the method is extended shadow addressing
            or the iommu method, whose shadow mappings carry it too).
        ctx_page_vaddr: where the context page is mapped, if mapped.
        capabilities: buffer vaddr -> capability descriptor (capio).
        capio_window_vaddr: base of the capio offset window, if mapped.
    """

    method: str
    ctx_id: Optional[int] = None
    key: Optional[int] = None
    shadow_ctx_bits: int = 0
    ctx_page_vaddr: Optional[int] = None
    capabilities: Dict[int, CapabilityDescriptor] = field(
        default_factory=dict)
    capio_window_vaddr: Optional[int] = None

    def capability_for(self, vaddr: int) -> Optional[CapabilityDescriptor]:
        """The descriptor whose buffer range contains *vaddr*, or None."""
        for desc in self.capabilities.values():
            if desc.vaddr <= vaddr < desc.vaddr + desc.size:
                return desc
        return None


@dataclass
class AtomicBinding:
    """User-level atomic-operation resources granted to a process."""

    mode: str
    ctx_id: Optional[int] = None
    key: Optional[int] = None
    ctx_page_vaddr: Optional[int] = None


class Process:
    """One OS process.

    Created through :meth:`repro.os.kernel.Kernel.spawn`; user code then
    asks the kernel for buffers and DMA/atomic bindings, builds programs
    against them, and runs threads.
    """

    def __init__(self, pid: int, name: str = "") -> None:
        self.pid = pid
        self.name = name or f"proc{pid}"
        self.page_table = PageTable(owner=self.name)
        self.buffers: List[Buffer] = []
        self.dma: Optional[DmaBinding] = None
        self.atomic: Optional[AtomicBinding] = None
        #: Remote windows the OS granted: (vaddr, global_paddr, size).
        self.remote_windows: List[tuple] = []
        self._brk = USER_BASE
        self._buffer_by_vaddr: Dict[int, Buffer] = {}

    # -- address space ----------------------------------------------------------

    def take_vrange(self, nbytes: int) -> int:
        """Reserve a page-aligned virtual range; returns its base."""
        if nbytes <= 0 or nbytes & PAGE_MASK:
            raise KernelError(
                f"virtual range must be a positive page multiple: {nbytes}")
        base = self._brk
        self._brk += nbytes
        return base

    def record_buffer(self, buffer: Buffer) -> None:
        """Track a kernel-allocated buffer."""
        self.buffers.append(buffer)
        self._buffer_by_vaddr[buffer.vaddr] = buffer

    def buffer_at(self, vaddr: int) -> Optional[Buffer]:
        """The buffer whose range contains *vaddr*, or None."""
        for buffer in self.buffers:
            if buffer.vaddr <= vaddr < buffer.vaddr + buffer.size:
                return buffer
        return None

    def remote_window_at(self, vaddr: int) -> Optional[int]:
        """The global physical address *vaddr* names through a granted
        remote window, or None."""
        for base, global_paddr, size in self.remote_windows:
            if base <= vaddr < base + size:
                return global_paddr + (vaddr - base)
        return None

    # -- threads -------------------------------------------------------------------

    def new_thread(self, program: Program) -> Thread:
        """Create a thread of this process running *program*.

        The process keeps no reference to it: a finished initiation's
        thread, program and instructions are freed as soon as its caller
        drops them, however many requests the process serves.
        """
        return Thread(pid=self.pid, page_table=self.page_table,
                      program=program)

    # -- conveniences for user-side code ----------------------------------------------

    @property
    def dma_binding(self) -> DmaBinding:
        """The DMA binding (raises if the OS has not granted one)."""
        if self.dma is None:
            raise KernelError(
                f"{self.name} has no user-level DMA binding; call "
                f"Kernel.enable_user_dma first")
        return self.dma

    @property
    def atomic_binding(self) -> AtomicBinding:
        """The atomic binding (raises if the OS has not granted one)."""
        if self.atomic is None:
            raise KernelError(
                f"{self.name} has no atomic binding; call "
                f"Kernel.enable_user_atomics first")
        return self.atomic

    def __repr__(self) -> str:
        return f"Process(pid={self.pid}, name={self.name!r})"
