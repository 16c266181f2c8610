"""User-level remote atomic operations (§3.5).

Network interfaces that export a shared-memory abstraction (Telegraphos,
Dolphin SCI) also execute atomic operations — ``atomic_add``,
``fetch_and_store``, ``compare_and_swap`` — at the target memory.  The
paper observes these are a *simpler* instance of the user-level DMA
problem: one physical address, one or two data operands, one result.

The :class:`AtomicUnit` is an MMIO device with its own little window:

* **context pages** — per-process operand registers and the result/
  execute readout;
* a **kernel-only key page** — as in §3.1;
* a **kernel-only control page** — the syscall baseline's registers;
* a **shadow region** whose offset encodes ``(opcode, CONTEXT_ID, target
  physical address)`` — argument passing exactly as for DMA.

Two user-level initiation flavours mirror the DMA methods:

* **keyed** (§3.1 adaptation): ``STORE key#ctx TO ashadow(op, vtarget)``
  latches the operation; operands go to the context page; a context-page
  load executes atomically and returns the old value.
* **extended shadow** (§3.2 adaptation): the CONTEXT_ID rides in the
  shadow address; a store latches the operand, a load from the same
  encoded target executes.  Two instructions for single-operand ops,
  three for compare-and-swap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import ConfigError, DeviceError
from ..obs.spans import SpanTracer
from ..sim.engine import Simulator
from ..units import Time
from .device import AccessContext, MmioDevice
from .dma.protocols.keyed import unpack_key_word
from .dma.status import STATUS_FAILURE
from .memory import PhysicalMemory
from .pagetable import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE

# Atomic opcodes carried in the shadow-address op field.
OP_ADD = 0
OP_FETCH_STORE = 1
OP_CAS = 2
#: Second-operand latch channel for compare-and-swap (extended-shadow flow).
OP_CAS_SWAP = 3

_OP_NAMES = {OP_ADD: "add", OP_FETCH_STORE: "fetch_store", OP_CAS: "cas",
             OP_CAS_SWAP: "cas_swap"}

# Control-page registers (kernel baseline path).
REG_TARGET = 0x00
REG_OPERAND = 0x08
REG_OPERAND2 = 0x10
REG_OPCODE = 0x18   # write executes
REG_RESULT = 0x20

# Context-page registers.
CTX_OPERAND = 0x00
CTX_OPERAND2 = 0x08

WORD_MASK = (1 << 64) - 1


@dataclass
class AtomicContext:
    """Per-process latched atomic-operation state."""

    ctx_id: int
    op: Optional[int] = None
    target: Optional[int] = None
    operand: Optional[int] = None
    operand2: Optional[int] = None
    owner_pid: Optional[int] = None

    def clear(self) -> None:
        """Drop the latched operation."""
        self.op = None
        self.target = None
        self.operand = None
        self.operand2 = None

    @property
    def ready(self) -> bool:
        """Whether the latched op has everything it needs to execute."""
        if self.op is None or self.target is None or self.operand is None:
            return False
        if self.op == OP_CAS and self.operand2 is None:
            return False
        return True


@dataclass(frozen=True)
class AtomicRecord:
    """One executed atomic operation (verification bookkeeping)."""

    when: Time
    op: int
    target: int
    operand: int
    operand2: Optional[int]
    result: int
    issuer: Optional[int]
    via: str


@dataclass(frozen=True)
class AtomicShadowLayout:
    """Window geometry of the atomic unit.

    Offsets::

        [0, n_contexts * PAGE)           context pages
        [n_contexts * PAGE, +PAGE)       key page (kernel-only)
        [(n_contexts+1) * PAGE, +PAGE)   control page (kernel-only)
        [shadow_offset, ...)             (op, ctx, paddr)-encoded shadow

    ``addr_bits`` is 34 so the target field carries *global* cluster
    addresses (6 node bits + 28 local bits — the NIC's address map):
    remote atomic operations are what the paper's NOW interfaces exist
    for.
    """

    window_base: int = 1 << 42
    n_contexts: int = 4
    ctx_bits: int = 2
    op_bits: int = 2
    addr_bits: int = 34
    shadow_offset: int = 1 << 36

    def __post_init__(self) -> None:
        if (1 << self.ctx_bits) < self.n_contexts:
            raise ConfigError(
                f"ctx_bits={self.ctx_bits} cannot name "
                f"{self.n_contexts} contexts")
        if self.shadow_offset < (self.n_contexts + 2) * PAGE_SIZE:
            raise ConfigError("shadow region overlaps register pages")

    @property
    def key_page(self) -> int:
        return self.n_contexts

    @property
    def control_page(self) -> int:
        return self.n_contexts + 1

    @property
    def shadow_region_size(self) -> int:
        return 1 << (self.op_bits + self.ctx_bits + self.addr_bits)

    @property
    def window_size(self) -> int:
        return self.shadow_offset + self.shadow_region_size

    def context_page_paddr(self, ctx_id: int) -> int:
        """Physical base of context page *ctx_id*."""
        if not 0 <= ctx_id < self.n_contexts:
            raise ConfigError(f"ctx {ctx_id} out of range")
        return self.window_base + ctx_id * PAGE_SIZE

    def shadow_paddr(self, op: int, paddr: int, ctx_id: int = 0) -> int:
        """Encode the shadow address for (*op*, *ctx_id*, *paddr*)."""
        if not 0 <= op < (1 << self.op_bits):
            raise ConfigError(f"opcode {op} overflows {self.op_bits} bits")
        if not 0 <= ctx_id < (1 << self.ctx_bits):
            raise ConfigError(f"ctx {ctx_id} overflows {self.ctx_bits} bits")
        if not 0 <= paddr < (1 << self.addr_bits):
            raise ConfigError(
                f"paddr {paddr:#x} overflows {self.addr_bits} bits")
        rel = ((op << (self.ctx_bits + self.addr_bits))
               | (ctx_id << self.addr_bits) | paddr)
        return self.window_base + self.shadow_offset + rel

    def decode_offset(self, offset: int
                      ) -> Optional["tuple[int, int, int]"]:
        """Decode a window offset to (op, ctx_id, paddr), or None."""
        rel = offset - self.shadow_offset
        if rel < 0 or rel >= self.shadow_region_size:
            return None
        paddr = rel & ((1 << self.addr_bits) - 1)
        ctx_id = (rel >> self.addr_bits) & ((1 << self.ctx_bits) - 1)
        op = rel >> (self.ctx_bits + self.addr_bits)
        return op, ctx_id, paddr


class AtomicUnit(MmioDevice):
    """The remote-atomic-operation engine.

    Args:
        sim: event engine.
        ram: the memory atomic operations execute against.
        layout: window geometry.
        mode: which user-level initiation flavour the unit is wired for —
            "keyed" or "extshadow" (the kernel control path always works).
        spans: optional shared span tracer; each executed operation
            becomes an instant ``atomic.op`` span on the unit's track.
    """

    def __init__(self, sim: Simulator, ram: PhysicalMemory,
                 layout: Optional[AtomicShadowLayout] = None,
                 mode: str = "keyed",
                 node_id: int = 0,
                 fabric=None,
                 addr_map=None,
                 remote_rtt: Time = 0,
                 spans: Optional[SpanTracer] = None,
                 name: str = "atomic") -> None:
        super().__init__(name)
        if mode not in ("keyed", "extshadow"):
            raise ConfigError(f"unknown atomic-unit mode {mode!r}")
        self.sim = sim
        self.ram = ram
        self.layout = layout if layout is not None else AtomicShadowLayout()
        self.mode = mode
        self.node_id = node_id
        self.fabric = fabric
        self.addr_map = addr_map
        #: Round-trip network time charged per remote operation; the
        #: cluster sets it from its link spec.
        self.remote_rtt = remote_rtt
        self.spans = spans if spans is not None else SpanTracer(
            sim.time_source())
        self.contexts = [AtomicContext(i)
                         for i in range(self.layout.n_contexts)]
        self.key_table: Dict[int, int] = {}
        self.operations: List[AtomicRecord] = []
        #: Operations whose records :meth:`drop_records` folded away.
        self.operations_dropped = 0
        self.key_rejections = 0
        self.protocol_violations = 0
        self._control = {REG_TARGET: 0, REG_OPERAND: 0, REG_OPERAND2: 0,
                         REG_RESULT: 0}

    # ------------------------------------------------------------------
    # MMIO
    # ------------------------------------------------------------------

    def mmio_write(self, offset: int, value: int, ctx: AccessContext) -> None:
        decoded = self.layout.decode_offset(offset)
        if decoded is not None:
            self._shadow_store(*decoded, value=value, ctx=ctx)
            return
        page = offset >> PAGE_SHIFT
        reg = offset & PAGE_MASK
        if page < self.layout.n_contexts:
            self._context_store(self.contexts[page], reg, value)
            return
        if page == self.layout.key_page:
            if not ctx.kernel:
                self.protocol_violations += 1
                return
            self.key_table[reg // 8] = value
            return
        if page == self.layout.control_page:
            self._control_write(reg, value, ctx)
            return
        raise DeviceError(f"{self.name}: write to offset {offset:#x}")

    def mmio_read(self, offset: int, ctx: AccessContext) -> int:
        decoded = self.layout.decode_offset(offset)
        if decoded is not None:
            return self._shadow_load(*decoded, ctx=ctx)
        page = offset >> PAGE_SHIFT
        reg = offset & PAGE_MASK
        if page < self.layout.n_contexts:
            return self._context_load(self.contexts[page], ctx)
        if page == self.layout.key_page:
            if not ctx.kernel:
                self.protocol_violations += 1
                return STATUS_FAILURE
            return self.key_table.get(reg // 8, 0)
        if page == self.layout.control_page:
            if not ctx.kernel:
                self.protocol_violations += 1
                return STATUS_FAILURE
            return self._control.get(reg, 0)
        raise DeviceError(f"{self.name}: read of offset {offset:#x}")

    # ------------------------------------------------------------------
    # shadow region
    # ------------------------------------------------------------------

    def _shadow_store(self, op: int, ctx_id: int, paddr: int, value: int,
                      ctx: AccessContext) -> None:
        if self.mode == "keyed":
            # The data word is key#ctx; the target/op ride in the address.
            key, named_ctx, _arg = unpack_key_word(value)
            if named_ctx >= len(self.contexts):
                self.key_rejections += 1
                return
            expected = self.key_table.get(named_ctx, 0)
            if expected == 0 or key != expected:
                self.key_rejections += 1
                return
            context = self.contexts[named_ctx]
            context.op = op
            context.target = paddr
            return
        # extshadow: ctx comes from the address; the data word is operand.
        if ctx_id >= len(self.contexts):
            self.protocol_violations += 1
            return
        context = self.contexts[ctx_id]
        if op == OP_CAS_SWAP:
            # Second CAS operand for an already-latched CAS.
            if context.op == OP_CAS and context.target == paddr:
                context.operand2 = value
            else:
                context.clear()
            return
        context.op = op
        context.target = paddr
        context.operand = value
        context.operand2 = None

    def _shadow_load(self, op: int, ctx_id: int, paddr: int,
                     ctx: AccessContext) -> int:
        if self.mode != "extshadow":
            return STATUS_FAILURE
        if ctx_id >= len(self.contexts):
            self.protocol_violations += 1
            return STATUS_FAILURE
        context = self.contexts[ctx_id]
        if (context.op != op or context.target != paddr
                or not context.ready):
            context.clear()
            return STATUS_FAILURE
        result = self._execute(context.op, context.target, context.operand,
                               context.operand2, ctx.issuer,
                               via="extshadow")
        context.clear()
        return result

    # ------------------------------------------------------------------
    # context pages (keyed flow)
    # ------------------------------------------------------------------

    def _context_store(self, context: AtomicContext, reg: int,
                       value: int) -> None:
        if reg == CTX_OPERAND2:
            context.operand2 = value
        else:
            context.operand = value

    def _context_load(self, context: AtomicContext,
                      ctx: AccessContext) -> int:
        if not context.ready:
            context.clear()
            return STATUS_FAILURE
        result = self._execute(context.op, context.target, context.operand,
                               context.operand2, ctx.issuer, via="keyed")
        context.clear()
        return result

    # ------------------------------------------------------------------
    # control page (kernel baseline)
    # ------------------------------------------------------------------

    def _control_write(self, reg: int, value: int,
                       ctx: AccessContext) -> None:
        if not ctx.kernel:
            self.protocol_violations += 1
            return
        if reg == REG_OPCODE:
            self._control[REG_RESULT] = self._execute(
                value, self._control[REG_TARGET],
                self._control[REG_OPERAND],
                self._control[REG_OPERAND2], ctx.issuer, via="kernel")
            return
        if reg in (REG_TARGET, REG_OPERAND, REG_OPERAND2):
            self._control[reg] = value
            return
        raise DeviceError(f"{self.name}: unknown control register {reg:#x}")

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _execute(self, op: int, target: int, operand: int,
                 operand2: Optional[int], issuer: Optional[int],
                 via: str) -> int:
        """Perform the atomic op against (possibly remote) memory.

        Returns the old value, or STATUS_FAILURE for an illegal target
        or opcode.  Remote targets stall the initiating access for
        :attr:`remote_rtt` — the network round trip the real interfaces
        pay to execute the operation at the home node.
        """
        resolved = self._resolve_target(target)
        if resolved is None:
            return STATUS_FAILURE
        ram, local, remote = resolved
        if not ram.contains(local, 8) or local % 8:
            return STATUS_FAILURE
        if remote:
            self.sim.advance(self.remote_rtt)
        old = ram.read_word(local)
        if op == OP_ADD:
            ram.write_word(local, (old + operand) & WORD_MASK)
        elif op == OP_FETCH_STORE:
            ram.write_word(local, operand & WORD_MASK)
        elif op == OP_CAS:
            compare = operand
            swap = operand2 if operand2 is not None else 0
            if old == compare:
                ram.write_word(local, swap & WORD_MASK)
        else:
            return STATUS_FAILURE
        self.operations.append(AtomicRecord(
            when=self.sim.now, op=op, target=target, operand=operand,
            operand2=operand2, result=old, issuer=issuer, via=via))
        if self.spans.enabled:
            self.spans.instant("atomic.op", track=self.name,
                               op=_OP_NAMES.get(op, str(op)), target=target,
                               old=old, via=via, issuer=issuer,
                               remote=remote)
        return old

    def _resolve_target(self, target: int):
        """Map a target word address to (ram, local address, is_remote).

        Without an address map the target is a plain local address.
        Returns None for unreachable targets.
        """
        if self.addr_map is None:
            return self.ram, target, False
        from ..errors import AddressError, NetworkError

        try:
            node, local = self.addr_map.decode(target)
        except AddressError:
            return None
        if node == self.node_id:
            return self.ram, local, False
        if self.fabric is None:
            return None
        try:
            return self.fabric.node_ram(node), local, True
        except NetworkError:
            return None

    # ------------------------------------------------------------------
    # administration
    # ------------------------------------------------------------------

    def install_key(self, ctx_id: int, key: int) -> None:
        """Install the protection key for atomic context *ctx_id*."""
        if not 0 <= ctx_id < len(self.contexts):
            raise ConfigError(f"ctx {ctx_id} out of range")
        self.key_table[ctx_id] = key

    def assign_context(self, ctx_id: int, pid: int) -> AtomicContext:
        """Assign context *ctx_id* to process *pid*, resetting it."""
        if not 0 <= ctx_id < len(self.contexts):
            raise ConfigError(f"ctx {ctx_id} out of range")
        context = self.contexts[ctx_id]
        context.clear()
        context.owner_pid = pid
        return context

    @property
    def operation_count(self) -> int:
        """Operations executed, dropped records included."""
        return self.operations_dropped + len(self.operations)

    def drop_records(self) -> None:
        """Fold the operation records into :attr:`operation_count` (a
        machine that runs indefinitely, between operations)."""
        self.operations_dropped += len(self.operations)
        self.operations.clear()

    def reset(self) -> None:
        """Power-on reset."""
        for context in self.contexts:
            context.clear()
            context.owner_pid = None
        self.key_table.clear()
        self.operations.clear()
        self.operations_dropped = 0
        self.key_rejections = 0
        self.protocol_violations = 0
        self._control = {REG_TARGET: 0, REG_OPERAND: 0, REG_OPERAND2: 0,
                         REG_RESULT: 0}
