"""The kernel.

Provides exactly the services the paper's world needs:

* **process and memory management** — spawn processes, allocate pinned
  physically contiguous buffers, create data and shadow mappings;
* **user-level DMA setup** (§3) — assign register contexts, mint and
  install secret keys, map context pages, choose the CONTEXT_ID bits for
  extended shadow mappings, install SHRIMP-1 mapped-out entries;
* **the Fig. 1 syscall baseline** — a ``dma`` system call that translates,
  checks, and pokes the privileged DMA registers, paying the full kernel
  cost the paper measures at 18.6 us;
* **atomic-operation syscalls** (§3.5 baseline) and user-level atomic
  setup;
* **context-switch hook factories** — the SHRIMP-2 "abort pending DMA"
  and FLASH "announce current process" kernel modifications, packaged as
  scheduler hooks so experiments can run with and without them.

Setup paths (spawn, allocate, enable) are *untimed*: they happen once at
program start and the paper measures none of them.  Syscall handlers and
context-switch hooks are fully timed.
"""

from __future__ import annotations

import weakref
from typing import Callable, Iterator, List, Optional

from ..errors import KernelError, PageFault, ProtectionFault
from ..hw.atomic_unit import (
    AtomicUnit,
    OP_ADD,
    OP_CAS,
    OP_FETCH_STORE,
    REG_OPCODE,
    REG_OPERAND,
    REG_OPERAND2,
    REG_RESULT,
    REG_TARGET,
)
from ..hw.bus import Bus
from ..hw.cpu import Cpu, Thread
from ..hw.device import AccessContext
from ..hw.dma.engine import (
    DmaEngine,
    REG_ABORT,
    REG_CURRENT_PID,
    REG_DESTINATION,
    REG_SIZE,
    REG_SOURCE,
    REG_STATUS,
)
from ..hw.dma.status import STATUS_FAILURE
from ..hw.pagetable import PAGE_SIZE, Perm, page_base, pages_covering
from ..sim.engine import Simulator
from ..sim.rng import make_secret_stream
from .costs import OsCosts
from ..hw.dma.recognizer import SetupOp
from ..hw.dma.protocols.capio import NONCE_FIELD_BITS
from .process import (
    ATOMIC_CTX_VADDR,
    AtomicBinding,
    Buffer,
    CAPIO_WINDOW_VADDR,
    CapabilityDescriptor,
    CTX_PAGE_VADDR,
    DmaBinding,
    Process,
)
from .vm import VirtualMemoryManager

#: Methods that require shadow mappings on user buffers.  The iommu
#: family is included, but its shadow mappings encode the buffer's
#: *virtual* address (the IOVA the engine translates), not the physical
#: one — see :meth:`Kernel._shadow_buffer`.
_SHADOW_METHODS = frozenset({
    "shrimp1", "shrimp2", "pal", "flash", "keyed", "extshadow",
    "repeated3", "repeated4", "repeated5", "iommu", "iommu_noshootdown",
})
#: Methods that consume a register context and a mapped context page.
_CONTEXT_METHODS = frozenset({
    "keyed", "extshadow", "iommu", "iommu_noshootdown",
    "capio", "capio_noepoch",
})
#: Methods whose CONTEXT_ID rides in the shadow mappings.
_EXT_BITS_METHODS = frozenset({"extshadow", "iommu", "iommu_noshootdown"})
#: The iommu family (kernel-managed I/O page tables).
_IOMMU_METHODS = frozenset({"iommu", "iommu_noshootdown"})
#: The capability family (kernel-minted per-buffer capabilities).
_CAPIO_METHODS = frozenset({"capio", "capio_noepoch"})
#: Pages in the capio offset window (covers buffers up to this size).
_CAPIO_WINDOW_PAGES = 8

#: Scheduler hook signature: (old process or None, new process).
SwitchHook = Callable[[Optional[Process], Process], None]


class Kernel:
    """The operating-system kernel of one workstation."""

    def __init__(self, sim: Simulator, cpu: Cpu, bus: Bus,
                 engine: DmaEngine, vmm: VirtualMemoryManager,
                 costs: OsCosts, seed: int = 0,
                 atomic_unit: Optional[AtomicUnit] = None) -> None:
        self.sim = sim
        self.cpu = cpu
        self.bus = bus
        self.engine = engine
        self.atomic_unit = atomic_unit
        self.vmm = vmm
        self.costs = costs
        self.processes: dict[int, Process] = {}
        self._next_pid = 1
        self._secrets: Iterator[int] = make_secret_stream(seed)
        self._next_cap_id = 1
        self._free_dma_contexts: List[int] = list(
            range(engine.layout.n_contexts))
        self._free_atomic_contexts: List[int] = (
            list(range(atomic_unit.layout.n_contexts))
            if atomic_unit is not None else [])
        # What every Fig. 1 syscall charges and where it pokes, resolved
        # once: its fixed costs in ps and the control page's base.
        cycles = cpu.clock.cycles
        self._dispatch_ps = cycles(costs.syscall_dispatch_cycles)
        self._translation_ps = cycles(costs.translation_cycles)
        self._issue_ps = cycles(cpu.costs.uncached_issue_cycles)
        self._dma_control = (engine.layout.window_base
                             + engine.layout.control_page_offset)
        self._register_syscalls()

    # ------------------------------------------------------------------
    # process and memory management (untimed setup paths)
    # ------------------------------------------------------------------

    def spawn(self, name: str = "") -> Process:
        """Create a new process with an empty address space."""
        proc = Process(self._next_pid, name)
        self._next_pid += 1
        self.processes[proc.pid] = proc
        return proc

    def alloc_buffer(self, proc: Process, nbytes: int,
                     perm: Perm = Perm.RW,
                     shadow: Optional[bool] = None) -> Buffer:
        """Allocate a pinned user buffer, creating shadow mappings if the
        process's DMA method uses them (§2.3's "at memory allocation
        time").

        Args:
            shadow: force shadow mappings on/off; None = infer from the
                process's DMA binding.
        """
        buffer = self.vmm.alloc_buffer(proc, nbytes, perm)
        if shadow is None:
            shadow = (proc.dma is not None
                      and proc.dma.method in _SHADOW_METHODS)
        if shadow:
            self._shadow_buffer(proc, buffer)
        self._grant_dma_resources(proc, buffer)
        if proc.atomic is not None:
            self.map_atomic_shadow(proc, buffer)
        return buffer

    def _shadow_buffer(self, proc: Process, buffer: Buffer) -> None:
        if proc.dma is None:
            raise KernelError(
                f"{proc.name}: shadow mappings need a DMA binding first")
        ctx_bits = proc.dma.shadow_ctx_bits
        if proc.dma.method in _IOMMU_METHODS:
            # The argument the engine decodes must be the buffer's
            # *virtual* address — the IOVA its I/O page table translates.
            base_v, base_p = buffer.vaddr, buffer.paddr
            self.vmm.map_shadow(
                proc, buffer,
                lambda paddr: self.engine.layout.shadow_paddr(
                    base_v + (paddr - base_p), ctx_bits))
            return
        self.vmm.map_shadow(
            proc, buffer,
            lambda paddr: self.engine.layout.shadow_paddr(
                self._globalize(paddr), ctx_bits))

    def _grant_dma_resources(self, proc: Process, buffer: Buffer) -> None:
        """Per-buffer kernel grants the modern methods need.

        The iommu family gets I/O page-table entries (IOVA = buffer
        virtual address); the capio family gets a freshly minted
        capability.  Both happen at allocation time, mirroring §2.3's
        "at memory allocation time" for shadow mappings.
        """
        if proc.dma is None:
            return
        if proc.dma.method in _IOMMU_METHODS:
            self.iommu_map(proc, buffer.vaddr, buffer.paddr, buffer.size,
                           writable=bool(buffer.perm & Perm.WRITE))
        elif proc.dma.method in _CAPIO_METHODS:
            self.mint_capability(proc, buffer,
                                 writable=bool(buffer.perm & Perm.WRITE))

    def share_buffer(self, owner: Process, buffer: Buffer, peer: Process,
                     perm: Optional[Perm] = None) -> int:
        """Map *owner*'s buffer into *peer*'s address space.

        Models shared memory between cooperating processes (and the
        "data readable by any process" precondition of the Fig. 6
        attack).  Shadow mappings for *peer* follow its own DMA binding.

        Returns:
            The virtual base of the mapping in *peer*.
        """
        if buffer not in owner.buffers:
            raise KernelError(f"buffer {buffer.vaddr:#x} not owned by "
                              f"{owner.name}")
        eff_perm = perm if perm is not None else buffer.perm
        vaddr = peer.take_vrange(buffer.size)
        peer.page_table.map_range(vaddr, buffer.paddr, buffer.size,
                                  eff_perm, user=True)
        shared = Buffer(vaddr=vaddr, paddr=buffer.paddr, size=buffer.size,
                        perm=eff_perm)
        peer.record_buffer(shared)
        if peer.dma is not None and peer.dma.method in _SHADOW_METHODS:
            self._shadow_buffer(peer, shared)
        self._grant_dma_resources(peer, shared)
        if peer.atomic is not None:
            self.map_atomic_shadow(peer, shared)
        return vaddr

    def map_remote_window(self, proc: Process, global_paddr: int,
                          nbytes: int) -> int:
        """Create shadow-only mappings naming remote memory.

        On a NOW with a global physical address space (Telegraphos-style)
        a process DMAs to remote memory by presenting shadow addresses
        that decode to global addresses on another node.  The returned
        virtual base has *no data mapping* (the memory is not local);
        only its shadow image exists, so it can be used exactly like a
        local destination in any initiation sequence.

        Returns:
            The virtual base; pass ``base + offset`` as vdestination.
        """
        if nbytes <= 0 or nbytes % PAGE_SIZE or global_paddr % PAGE_SIZE:
            raise KernelError(
                "remote window must be page-aligned whole pages")
        vaddr = proc.take_vrange(nbytes)
        proc.remote_windows.append((vaddr, global_paddr, nbytes))
        if proc.dma is not None:
            # User-level methods get shadow mappings so their sequences
            # can name the remote destination directly.
            ctx_bits = proc.dma.shadow_ctx_bits
            from .process import shadow_vaddr

            for offset in range(0, nbytes, PAGE_SIZE):
                proc.page_table.map_range(
                    shadow_vaddr(vaddr + offset),
                    self.engine.layout.shadow_paddr(
                        global_paddr + offset, ctx_bits),
                    PAGE_SIZE, Perm.RW, user=True, uncached=True)
        # Kernel-method processes use the window through the dma syscall,
        # which resolves it from proc.remote_windows.
        return vaddr

    def _globalize(self, paddr: int) -> int:
        """Encode a local physical address for the engine's address space.

        NICs on a cluster fabric speak global addresses; a plain DMA
        engine (or node 0, where global == local) is the identity.
        """
        encode = getattr(self.engine, "global_address", None)
        if encode is None:
            return paddr
        return encode(paddr)

    # ------------------------------------------------------------------
    # user-level DMA setup (§3)
    # ------------------------------------------------------------------

    def enable_user_dma(self, proc: Process) -> DmaBinding:
        """Grant *proc* the user-level DMA method the engine is wired for.

        Allocates a register context and key where the method needs them.
        Must run before shadowed buffers are allocated (the extended-
        shadow CONTEXT_ID is baked into the mappings).

        Raises:
            KernelError: if already enabled, if the engine runs the
                kernel-only protocol, or if no register context is free
                (§3.2: "the rest will have to go through the kernel").
        """
        if proc.dma is not None:
            raise KernelError(f"{proc.name} already has a DMA binding")
        method = self.engine.protocol.name
        if method == "kernel":
            raise KernelError(
                "the engine runs the kernel-only protocol; user-level DMA "
                "is unavailable")
        binding = DmaBinding(method=method)
        if method in _CONTEXT_METHODS:
            if not self._free_dma_contexts:
                raise KernelError(
                    "no free DMA register context; fall back to the "
                    "kernel path")
            ctx_id = self._free_dma_contexts.pop(0)
            self.engine.assign_context(ctx_id, proc.pid)
            binding.ctx_id = ctx_id
            binding.ctx_page_vaddr = CTX_PAGE_VADDR
            self.vmm.map_device_page(
                proc, CTX_PAGE_VADDR,
                self.engine.layout.context_page_paddr(ctx_id), Perm.RW)
            if method == "keyed":
                key = next(self._secrets)
                self.engine.install_key(ctx_id, key)
                binding.key = key
            elif method in _EXT_BITS_METHODS:
                # extshadow and iommu: the ctx id rides in the mappings.
                binding.shadow_ctx_bits = ctx_id
            if method in _CAPIO_METHODS:
                # Map the offset window: a store to window + offset
                # presents *offset* to the engine; the capability token
                # in the data word names the buffer.
                binding.capio_window_vaddr = CAPIO_WINDOW_VADDR
                for page in range(_CAPIO_WINDOW_PAGES):
                    self.vmm.map_device_page(
                        proc, CAPIO_WINDOW_VADDR + page * PAGE_SIZE,
                        self.engine.layout.shadow_paddr(page * PAGE_SIZE),
                        Perm.RW)
        proc.dma = binding
        return binding

    def release_user_dma(self, proc: Process) -> None:
        """Revoke *proc*'s DMA binding, scrubbing engine state and keys."""
        if proc.dma is None:
            return
        if proc.dma.ctx_id is not None:
            self.engine.release_context(proc.dma.ctx_id)
            self._free_dma_contexts.append(proc.dma.ctx_id)
        proc.dma = None

    def map_out(self, src_proc: Process, vsrc: int, dst_proc: Process,
                vdst: int, nbytes: int = PAGE_SIZE) -> None:
        """Install SHRIMP-1 mapped-out entries page-by-page (§2.4).

        Both virtual ranges must be mapped with the right permissions;
        the engine's mapped-out table then pins src-page -> dst-page.
        """
        src_proc.page_table.check_range(vsrc, nbytes, "read")
        dst_proc.page_table.check_range(vdst, nbytes, "write")
        for index, vpn in enumerate(pages_covering(vsrc, nbytes)):
            psrc = src_proc.page_table.translate(vpn * PAGE_SIZE, "read")
            pdst = dst_proc.page_table.translate(
                page_base(vdst) + index * PAGE_SIZE, "write")
            self.engine.install_mapout(
                page_base(self._globalize(psrc)),
                page_base(self._globalize(pdst)))

    # ------------------------------------------------------------------
    # modern-method kernel management (untimed setup paths)
    # ------------------------------------------------------------------

    def iommu_map(self, proc: Process, iova: int, paddr: int, nbytes: int,
                  writable: bool = True) -> None:
        """Install I/O page-table entries for *proc*'s register context.

        Page-by-page: IOVA page ``iova + k*PAGE`` maps to physical frame
        ``paddr + k*PAGE``.  Both must be page-aligned.

        Raises:
            KernelError: if the process is not bound to an iommu method.
        """
        binding = self._iommu_binding(proc)
        if iova % PAGE_SIZE or paddr % PAGE_SIZE or nbytes <= 0:
            raise KernelError("iommu mappings must be page-aligned")
        for offset in range(0, nbytes, PAGE_SIZE):
            self.engine.protocol.apply_setup(SetupOp(
                "iommu-map", (binding.ctx_id, iova + offset,
                              self._globalize(paddr + offset), writable)))

    def iommu_unmap(self, proc: Process, iova: int,
                    nbytes: int = PAGE_SIZE) -> None:
        """Remove I/O page-table entries (IOTLB shoot-down included
        when the engine runs the correct ``iommu`` protocol)."""
        binding = self._iommu_binding(proc)
        for offset in range(0, nbytes, PAGE_SIZE):
            self.engine.protocol.apply_setup(SetupOp(
                "iommu-unmap", (binding.ctx_id, iova + offset)))

    def _iommu_binding(self, proc: Process) -> DmaBinding:
        binding = proc.dma
        if binding is None or binding.method not in _IOMMU_METHODS \
                or binding.ctx_id is None:
            raise KernelError(
                f"{proc.name} has no iommu DMA binding")
        return binding

    def mint_capability(self, proc: Process, buffer: Buffer,
                        readable: bool = True,
                        writable: bool = True) -> CapabilityDescriptor:
        """Mint a capability over *buffer* for *proc* (capio methods).

        Installs the capability in the engine's table and returns the
        descriptor user code builds tokens from.

        Raises:
            KernelError: if the process is not bound to a capio method.
        """
        binding = self._capio_binding(proc)
        cap_id = self._next_cap_id
        self._next_cap_id += 1
        nonce = next(self._secrets) & ((1 << NONCE_FIELD_BITS) - 1)
        self.engine.protocol.apply_setup(SetupOp(
            "cap-mint", (cap_id, binding.ctx_id, proc.pid,
                         self._globalize(buffer.paddr), buffer.size,
                         readable, writable, nonce)))
        descriptor = CapabilityDescriptor(
            cap_id=cap_id, nonce=nonce, epoch=0,
            vaddr=buffer.vaddr, size=buffer.size)
        binding.capabilities[buffer.vaddr] = descriptor
        return descriptor

    def revoke_capability(self, proc: Process,
                          descriptor: CapabilityDescriptor) -> None:
        """Revoke a capability by bumping its epoch.

        Tokens built from *descriptor* (and any copies of it) stop
        validating at the engine — even ones already latched, because
        the start re-validates both arguments.
        """
        self._capio_binding(proc)
        self.engine.protocol.apply_setup(SetupOp(
            "cap-revoke", (descriptor.cap_id,)))
        if proc.dma is not None:
            proc.dma.capabilities.pop(descriptor.vaddr, None)

    def _capio_binding(self, proc: Process) -> DmaBinding:
        binding = proc.dma
        if binding is None or binding.method not in _CAPIO_METHODS \
                or binding.ctx_id is None:
            raise KernelError(
                f"{proc.name} has no capio DMA binding")
        return binding

    # ------------------------------------------------------------------
    # user-level atomic setup (§3.5)
    # ------------------------------------------------------------------

    def enable_user_atomics(self, proc: Process) -> AtomicBinding:
        """Grant *proc* user-level atomic operations.

        Raises:
            KernelError: if the machine has no atomic unit, the binding
                exists, or contexts ran out.
        """
        if self.atomic_unit is None:
            raise KernelError("this machine has no atomic unit")
        if proc.atomic is not None:
            raise KernelError(f"{proc.name} already has an atomic binding")
        if not self._free_atomic_contexts:
            raise KernelError("no free atomic context")
        ctx_id = self._free_atomic_contexts.pop(0)
        self.atomic_unit.assign_context(ctx_id, proc.pid)
        binding = AtomicBinding(mode=self.atomic_unit.mode, ctx_id=ctx_id,
                                ctx_page_vaddr=ATOMIC_CTX_VADDR)
        self.vmm.map_device_page(
            proc, ATOMIC_CTX_VADDR,
            self.atomic_unit.layout.context_page_paddr(ctx_id), Perm.RW)
        if self.atomic_unit.mode == "keyed":
            key = next(self._secrets)
            self.atomic_unit.install_key(ctx_id, key)
            binding.key = key
        proc.atomic = binding
        # Retroactively shadow existing buffers for the atomic unit.
        for buffer in proc.buffers:
            self.map_atomic_shadow(proc, buffer)
        return binding

    def map_atomic_shadow(self, proc: Process, buffer: Buffer) -> None:
        """Create the atomic-unit shadow mappings for *buffer*.

        One mapping per (opcode, page) pair: the opcode rides in the
        virtual offset, the CONTEXT_ID in the physical address bits (the
        extended-shadow flavour) or nowhere (the keyed flavour, which
        names the context in the data word).
        """
        if self.atomic_unit is None or proc.atomic is None:
            return
        from .process import atomic_shadow_vaddr

        binding = proc.atomic
        ctx_bits = (binding.ctx_id
                    if self.atomic_unit.mode == "extshadow" else 0)
        layout = self.atomic_unit.layout
        n_ops = 1 << layout.op_bits
        for op in range(n_ops):
            for offset in range(0, buffer.size, PAGE_SIZE):
                vaddr = atomic_shadow_vaddr(op, buffer.vaddr + offset)
                if vaddr in proc.page_table:
                    continue
                paddr = layout.shadow_paddr(
                    op, self._globalize(buffer.paddr + offset), ctx_bits)
                proc.page_table.map_range(vaddr, paddr, PAGE_SIZE,
                                          buffer.perm, user=True,
                                          uncached=True)

    def map_remote_atomic_window(self, proc: Process, global_paddr: int,
                                 nbytes: int) -> int:
        """Shadow-only atomic mappings naming remote memory.

        Like :meth:`map_remote_window`, but for the atomic unit: the
        returned virtual base can be used as the target of user-level
        atomic operations executed at the remote node (§3.5 on the NOW).
        """
        if self.atomic_unit is None:
            raise KernelError("this machine has no atomic unit")
        if proc.atomic is None:
            raise KernelError(
                f"{proc.name}: remote atomic windows need an atomic "
                f"binding first")
        if nbytes <= 0 or nbytes % PAGE_SIZE or global_paddr % PAGE_SIZE:
            raise KernelError(
                "remote atomic window must be page-aligned whole pages")
        vaddr = proc.take_vrange(nbytes)
        from .process import atomic_shadow_vaddr as _asv

        binding = proc.atomic
        ctx_bits = (binding.ctx_id
                    if self.atomic_unit.mode == "extshadow" else 0)
        layout = self.atomic_unit.layout
        for op in range(1 << layout.op_bits):
            for offset in range(0, nbytes, PAGE_SIZE):
                proc.page_table.map_range(
                    _asv(op, vaddr + offset),
                    layout.shadow_paddr(op, global_paddr + offset,
                                        ctx_bits),
                    PAGE_SIZE, Perm.RW, user=True, uncached=True)
        return vaddr

    # ------------------------------------------------------------------
    # syscalls (timed — the Fig. 1 baseline path)
    # ------------------------------------------------------------------

    def _register_syscalls(self) -> None:
        # The CPU calls back into this kernel through a weak proxy:
        # bound methods would make the kernel and its CPU a reference
        # cycle, which only the cyclic garbage collector frees.
        kernel = weakref.proxy(self)
        register = self.cpu.register_syscall
        register("dma", lambda thread, cpu: kernel._sys_dma(thread, cpu))
        register("atomic_add",
                 lambda thread, cpu: kernel._sys_atomic_add(thread, cpu))
        register("atomic_fas",
                 lambda thread, cpu: kernel._sys_atomic_fas(thread, cpu))
        register("atomic_cas",
                 lambda thread, cpu: kernel._sys_atomic_cas(thread, cpu))

    def _sys_dma(self, thread: Thread, cpu: Cpu) -> int:
        """The Fig. 1 kernel-level DMA: translate, check, poke registers."""
        proc = self._proc_of(thread)
        vsrc = thread.reg("a0")
        vdst = thread.reg("a1")
        size = thread.reg("a2")
        self.sim.advance(self._dispatch_ps)
        try:
            if size <= 0:
                raise ProtectionFault(vsrc, "dma-size")
            psrc = self.virtual_to_physical(proc, vsrc, "read")
            global_dst = self._resolve_destination(proc, vdst, size)
            npages = (size + PAGE_SIZE - 1) // PAGE_SIZE
            self.charge(self.costs.range_check_cycles_per_page * npages)
            proc.page_table.check_range(vsrc, size, "read")
        except (PageFault, ProtectionFault):
            return STATUS_FAILURE
        control = self._dma_control
        self.device_write(control + REG_SOURCE, self._globalize(psrc),
                          thread)
        self.device_write(control + REG_DESTINATION, global_dst, thread)
        self.device_write(control + REG_SIZE, size, thread)
        return self.device_read(control + REG_STATUS, thread)

    def _resolve_destination(self, proc: Process, vdst: int,
                             size: int) -> int:
        """Translate a DMA destination, honouring granted remote windows.

        A locally mapped destination is translated and range-checked as
        in Fig. 1.  An unmapped destination inside a remote window the
        kernel granted earlier resolves to its global address (the
        remote node checks nothing further — deposits go straight to
        memory, as in the SHRIMP/Telegraphos model).
        """
        remote = proc.remote_window_at(vdst)
        if remote is not None:
            self.sim.advance(self._translation_ps)
            # The whole transfer must stay inside ONE granted window —
            # two windows with a gap between them must not be bridged.
            for base, _global, window_size in proc.remote_windows:
                if base <= vdst < base + window_size:
                    if vdst + max(size, 1) > base + window_size:
                        raise ProtectionFault(vdst, "write")
                    break
            return remote
        pdst = self.virtual_to_physical(proc, vdst, "write")
        if size > 0:
            npages = (size + PAGE_SIZE - 1) // PAGE_SIZE
            self.charge(self.costs.range_check_cycles_per_page * npages)
            proc.page_table.check_range(vdst, size, "write")
        return self._globalize(pdst)

    def _sys_atomic_add(self, thread: Thread, cpu: Cpu) -> int:
        return self._sys_atomic(thread, OP_ADD)

    def _sys_atomic_fas(self, thread: Thread, cpu: Cpu) -> int:
        return self._sys_atomic(thread, OP_FETCH_STORE)

    def _sys_atomic_cas(self, thread: Thread, cpu: Cpu) -> int:
        return self._sys_atomic(thread, OP_CAS)

    def _sys_atomic(self, thread: Thread, op: int) -> int:
        """Kernel-level atomic operation (the §3.5 baseline)."""
        if self.atomic_unit is None:
            return STATUS_FAILURE
        proc = self._proc_of(thread)
        vtarget = thread.reg("a0")
        operand = thread.reg("a1")
        operand2 = thread.reg("a2")
        self.sim.advance(self._dispatch_ps)
        try:
            ptarget = self.virtual_to_physical(proc, vtarget, "write")
            proc.page_table.translate(vtarget, "read")
        except (PageFault, ProtectionFault):
            return STATUS_FAILURE
        control = (self.atomic_unit.layout.window_base
                   + self.atomic_unit.layout.control_page * PAGE_SIZE)
        self.device_write(control + REG_TARGET, self._globalize(ptarget),
                          thread)
        self.device_write(control + REG_OPERAND, operand, thread)
        if op == OP_CAS:
            self.device_write(control + REG_OPERAND2, operand2, thread)
        self.device_write(control + REG_OPCODE, op, thread)
        return self.device_read(control + REG_RESULT, thread)

    # ------------------------------------------------------------------
    # context-switch hooks: the kernel modifications our methods avoid
    # ------------------------------------------------------------------

    def shrimp_abort_hook(self) -> SwitchHook:
        """Build the SHRIMP-2 kernel modification (§2.5).

        "The operating system must invalidate any partially initiated
        user-level DMA transfer on every context switch."
        """
        control = self._dma_control

        def hook(old: Optional[Process], new: Process) -> None:
            self.charge(self.costs.hook_call_cycles)
            self.device_write(control + REG_ABORT, 1, None)

        return hook

    def flash_current_pid_hook(self) -> SwitchHook:
        """Build the FLASH kernel modification (§2.6).

        "The context switch handler informs the DMA engine about which
        process is currently running."
        """
        control = self._dma_control

        def hook(old: Optional[Process], new: Process) -> None:
            self.charge(self.costs.hook_call_cycles)
            self.device_write(control + REG_CURRENT_PID, new.pid, None)

        return hook

    # ------------------------------------------------------------------
    # timed kernel primitives
    # ------------------------------------------------------------------

    def charge(self, cycles: float) -> None:
        """Spend *cycles* of CPU time on kernel work."""
        self.cpu.advance_cycles(cycles)

    def virtual_to_physical(self, proc: Process, vaddr: int,
                            access: str) -> int:
        """Fig. 1's software translation with access-rights check."""
        self.sim.advance(self._translation_ps)
        return proc.page_table.translate(vaddr, access, user_mode=True)

    def device_write(self, paddr: int, value: int,
                     thread: Optional[Thread]) -> None:
        """An uncached privileged register write, fully timed."""
        sim = self.sim
        sim.advance(self._issue_ps)
        sim.advance(self.bus.write_word(paddr, value, AccessContext(
            thread.pid if thread is not None else None, True, sim.now)))

    def device_read(self, paddr: int, thread: Optional[Thread]) -> int:
        """An uncached privileged register read, fully timed."""
        sim = self.sim
        sim.advance(self._issue_ps)
        value, cost = self.bus.read_word(paddr, AccessContext(
            thread.pid if thread is not None else None, True, sim.now))
        sim.advance(cost)
        return value

    # ------------------------------------------------------------------

    def _proc_of(self, thread: Thread) -> Process:
        proc = self.processes.get(thread.pid)
        if proc is None:
            raise KernelError(f"no process with pid {thread.pid}")
        return proc
