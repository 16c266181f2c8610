"""The CPU model.

Executes :class:`~repro.hw.isa.Program` instruction streams against an MMU,
a write buffer, and the I/O bus, advancing the simulation clock by a
calibrated per-instruction cost.  The model captures exactly the properties
the paper's protocols depend on:

* **Interruptibility** — the scheduler may preempt a thread *between* any
  two instructions (that is what breaks SHRIMP-2/FLASH without kernel
  hooks), but never inside a PAL call or a syscall, which execute as one
  indivisible :meth:`Cpu.step`.
* **Posted writes** — uncached stores land in the write buffer and reach
  the device later (in FIFO order), possibly collapsed, unless an ``MB``
  or an uncached load forces a drain.
* **Protection** — every user-mode access is checked by the MMU against
  the active page table, including accesses issued from PAL mode (PAL code
  is privileged only in that it cannot be interrupted; its loads and
  stores still translate through the user's mappings, which is precisely
  why the paper's PAL method is safe).

Costs are expressed in CPU cycles via :class:`CpuCosts` and converted
through the CPU clock domain; bus-side costs come from the bus itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Callable, Dict, List, Optional

from ..errors import ConfigError, PageFault, ProtectionFault, ReproError
from ..obs.spans import SpanTracer
from ..sim.clock import Clock
from ..sim.engine import Simulator
from ..sim.stats import StatRegistry
from ..units import Time
from .bus import Bus
from .device import AccessContext
from .isa import (
    Add,
    Addr,
    Beq,
    Bne,
    CallPal,
    CompareExchange,
    Halt,
    Instruction,
    Jump,
    Load,
    Mb,
    Mov,
    Nop,
    Operand,
    PAL_MAX_INSTRUCTIONS,
    Program,
    Store,
    Syscall,
)
from .mmu import Mmu
from .pagetable import PageTable
from .writebuffer import WriteBuffer

WORD_MASK = (1 << 64) - 1

#: Signature of a registered syscall handler: (thread, cpu) -> result.
SyscallHandler = Callable[["Thread", "Cpu"], int]


@dataclass(frozen=True)
class CpuCosts:
    """Per-instruction cycle costs (CPU clock domain).

    Calibrated in :mod:`repro.core.timing`; see DESIGN.md §6.
    """

    base_cycles: float = 1.0
    mem_cycles: float = 2.0
    uncached_issue_cycles: float = 4.0
    mb_cycles: float = 3.0
    branch_cycles: float = 2.0
    pal_entry_cycles: float = 25.0
    pal_exit_cycles: float = 10.0
    syscall_entry_cycles: float = 1100.0
    syscall_exit_cycles: float = 1100.0


class StepStatus(Enum):
    """Outcome of executing one instruction."""

    RUNNING = auto()
    HALTED = auto()
    FAULTED = auto()


@dataclass
class Fault:
    """A memory-management fault delivered to a thread."""

    kind: str
    vaddr: int
    access: str
    pc: int


@dataclass
class Thread:
    """An executable context: program counter, registers, address space.

    Threads are owned by OS processes (:mod:`repro.os.process`); the CPU
    only needs the fields here.
    """

    pid: int
    page_table: PageTable
    program: Program
    pc: int = 0
    registers: Dict[str, int] = field(default_factory=dict)
    halted: bool = False
    fault: Optional[Fault] = None
    instructions_retired: int = 0

    def __post_init__(self) -> None:
        self.registers.setdefault("zero", 0)

    def reg(self, name: str) -> int:
        """Read register *name* (unset registers read as 0)."""
        if name == "zero":
            return 0
        return self.registers.get(name, 0)

    def set_reg(self, name: str, value: int) -> None:
        """Write register *name* (writes to ``zero`` are discarded)."""
        if name == "zero":
            return
        self.registers[name] = value & WORD_MASK

    @property
    def done(self) -> bool:
        """Whether the thread can no longer run."""
        return self.halted or self.fault is not None

    def restart(self, program: Optional[Program] = None) -> None:
        """Reset control flow (and optionally swap the program)."""
        if program is not None:
            self.program = program
        self.pc = 0
        self.halted = False
        self.fault = None


class Cpu:
    """A single simulated processor.

    Args:
        sim: the discrete-event simulator (global clock).
        clock: the CPU clock domain.
        mmu: the memory-management unit.
        bus: the I/O bus (also reaches RAM).
        write_buffer: the posted-store buffer.
        costs: per-instruction cycle costs.
        spans: optional shared span tracer; each fault becomes an
            instant ``cpu.fault`` span on the CPU's track.
        name: component name for stats and span tracks.
    """

    def __init__(self, sim: Simulator, clock: Clock, mmu: Mmu, bus: Bus,
                 write_buffer: WriteBuffer, costs: CpuCosts,
                 spans: Optional[SpanTracer] = None, name: str = "cpu0",
                 cache=None) -> None:
        self.sim = sim
        self.clock = clock
        self.mmu = mmu
        self.bus = bus
        self.write_buffer = write_buffer
        self.costs = costs
        self.spans = spans if spans is not None else SpanTracer(
            sim.time_source())
        self.name = name
        #: Optional data cache (repro.hw.cache.DataCache); when present,
        #: cached RAM accesses pay its hit/miss cycles instead of the
        #: flat mem_cycles cost.
        self.cache = cache
        self.stats = StatRegistry(name)
        self._pal_functions: Dict[str, Program] = {}
        self._syscalls: Dict[str, SyscallHandler] = {}
        self._in_pal = False
        self._in_kernel = False
        self._current_thread: Optional[Thread] = None

    # -- configuration ---------------------------------------------------------

    def install_pal_function(self, name: str, program: Program) -> None:
        """Install a PAL call (super-user operation in the paper).

        Raises:
            ConfigError: if the program exceeds the 16-instruction PAL slot
                or contains nested CALL_PAL/SYSCALL instructions.
        """
        if len(program) > PAL_MAX_INSTRUCTIONS:
            raise ConfigError(
                f"PAL function {name!r} has {len(program)} instructions; "
                f"PAL calls are limited to {PAL_MAX_INSTRUCTIONS}")
        for instr in program.instructions:
            if isinstance(instr, (CallPal, Syscall)):
                raise ConfigError(
                    f"PAL function {name!r} may not trap or nest PAL calls")
        self._pal_functions[name] = program

    def register_syscall(self, name: str, handler: SyscallHandler) -> None:
        """Register the kernel handler for syscall *name*."""
        self._syscalls[name] = handler

    @property
    def pal_function_names(self) -> List[str]:
        """Installed PAL call names."""
        return sorted(self._pal_functions)

    def pal_function(self, name: str) -> Program:
        """The installed PAL program *name*.

        Raises:
            ConfigError: if no such PAL function is installed.
        """
        if name not in self._pal_functions:
            raise ConfigError(f"no PAL function {name!r} installed")
        return self._pal_functions[name]

    # -- execution ----------------------------------------------------------------

    def step(self, thread: Thread) -> StepStatus:
        """Execute one instruction of *thread*, advancing simulated time.

        The caller (scheduler) is responsible for having activated the
        thread's page table.  PAL calls and syscalls complete entirely
        within one step — this is the atomicity the paper leans on.
        """
        if thread.done:
            return StepStatus.HALTED if thread.halted else StepStatus.FAULTED
        if thread.pc >= len(thread.program):
            thread.halted = True
            return StepStatus.HALTED
        instr = thread.program.instructions[thread.pc]
        self._current_thread = thread
        try:
            next_pc = self._execute(thread, instr)
        except (PageFault, ProtectionFault) as exc:
            thread.fault = Fault(
                kind=type(exc).__name__,
                vaddr=exc.vaddr,
                access=exc.access,
                pc=thread.pc,
            )
            self.stats.counter("faults").add()
            self.spans.instant("cpu.fault", track=self.name,
                               pid=thread.pid, pc=thread.pc,
                               fault=thread.fault.kind, vaddr=exc.vaddr)
            return StepStatus.FAULTED
        finally:
            self._current_thread = None
        thread.pc = next_pc
        thread.instructions_retired += 1
        self.stats.counter("instructions").add()
        if thread.halted:
            return StepStatus.HALTED
        return StepStatus.RUNNING

    def run(self, thread: Thread, max_instructions: int = 1_000_000,
            ) -> StepStatus:
        """Run *thread* to completion (no preemption).

        Activates the thread's page table first, flushing the TLB only
        when the address space actually changes (so repeated runs by one
        process keep a warm TLB, as the paper's 1,000-iteration loops
        would).  Single-threaded convenience used by benchmarks and
        examples; multiprogrammed execution goes through
        :mod:`repro.os.scheduler`.

        Raises:
            ReproError: if the instruction budget is exhausted (runaway
                loop in a generated program).
        """
        switching = self.mmu.page_table is not thread.page_table
        self.mmu.activate(thread.page_table, flush=switching)
        for _ in range(max_instructions):
            status = self.step(thread)
            if status is not StepStatus.RUNNING:
                return status
        raise ReproError(
            f"thread {thread.pid} exceeded {max_instructions} instructions")

    # -- per-instruction semantics ---------------------------------------------------

    def _execute(self, thread: Thread, instr: Instruction) -> int:
        pc = thread.pc
        if isinstance(instr, Load):
            self._do_load(thread, instr.dst, instr.addr)
            return pc + 1
        if isinstance(instr, Store):
            self._do_store(thread, instr.addr, self._value(thread, instr.src))
            return pc + 1
        if isinstance(instr, CompareExchange):
            self._do_exchange(thread, instr.dst, instr.addr,
                              self._value(thread, instr.src))
            return pc + 1
        if isinstance(instr, Mb):
            self._advance_cycles(self.costs.mb_cycles)
            self._flush_write_buffer(thread)
            self.stats.counter("mbs").add()
            return pc + 1
        if isinstance(instr, Mov):
            thread.set_reg(instr.dst, self._value(thread, instr.src))
            self._advance_cycles(self.costs.base_cycles)
            return pc + 1
        if isinstance(instr, Add):
            total = self._value(thread, instr.a) + self._value(thread, instr.b)
            thread.set_reg(instr.dst, total)
            self._advance_cycles(self.costs.base_cycles)
            return pc + 1
        if isinstance(instr, Beq):
            self._advance_cycles(self.costs.branch_cycles)
            if self._value(thread, instr.a) == self._value(thread, instr.b):
                return thread.program.target(instr.target)
            return pc + 1
        if isinstance(instr, Bne):
            self._advance_cycles(self.costs.branch_cycles)
            if self._value(thread, instr.a) != self._value(thread, instr.b):
                return thread.program.target(instr.target)
            return pc + 1
        if isinstance(instr, Jump):
            self._advance_cycles(self.costs.branch_cycles)
            return thread.program.target(instr.target)
        if isinstance(instr, CallPal):
            self._do_call_pal(thread, instr.name)
            return pc + 1
        if isinstance(instr, Syscall):
            self._do_syscall(thread, instr.name)
            return pc + 1
        if isinstance(instr, Halt):
            thread.halted = True
            self._advance_cycles(self.costs.base_cycles)
            # The buffer keeps draining after the program ends; model it
            # as a final flush so no posted store is ever lost.
            self._flush_write_buffer(thread)
            return pc + 1
        if isinstance(instr, Nop):
            self._advance_cycles(self.costs.base_cycles)
            return pc + 1
        raise ConfigError(f"unknown instruction {instr!r}")

    # -- memory paths ------------------------------------------------------------------

    def _do_load(self, thread: Thread, dst: str, addr: Addr) -> None:
        vaddr = self._effective(thread, addr)
        translation = self.mmu.translate(vaddr, "read",
                                         user_mode=not self._in_kernel)
        self.sim.advance(translation.cost)
        paddr = translation.paddr
        if self.bus.is_device(paddr):
            forwarded = self.write_buffer.forward(paddr)
            if forwarded is not None:
                # Relaxed write buffer: the load is serviced from a
                # pending same-address store and never reaches the device
                # (footnote 6's failure mode).
                self._advance_cycles(self.costs.base_cycles)
                thread.set_reg(dst, forwarded)
                self.stats.counter("forwarded_loads").add()
                return
            if not self.write_buffer.relaxed:
                # Strongly ordered interface: drain before the load.
                self._flush_write_buffer(thread)
            self._advance_cycles(self.costs.base_cycles
                                 + self.costs.uncached_issue_cycles)
            value, bus_cost = self.bus.read_word(paddr, self._access_ctx(thread))
            self.sim.advance(bus_cost)
            self.stats.counter("uncached_loads").add()
        else:
            self._advance_cycles(self.costs.mem_cycles
                                 if self.cache is None
                                 else self.cache.access(paddr))
            value = self.bus.ram.read_word(paddr)
            self.stats.counter("loads").add()
        thread.set_reg(dst, value)

    def _do_store(self, thread: Thread, addr: Addr, value: int) -> None:
        vaddr = self._effective(thread, addr)
        translation = self.mmu.translate(vaddr, "write",
                                         user_mode=not self._in_kernel)
        self.sim.advance(translation.cost)
        paddr = translation.paddr
        if self.bus.is_device(paddr):
            self._advance_cycles(self.costs.base_cycles
                                 + self.costs.uncached_issue_cycles)
            room_cost = self.write_buffer.post(
                paddr, value & WORD_MASK, self._drain_fn(thread))
            # post() already advanced time inside the drain fn if it had
            # to make room; room_cost is informational.
            del room_cost
            self.stats.counter("uncached_stores").add()
        else:
            self._advance_cycles(self.costs.mem_cycles
                                 if self.cache is None
                                 else self.cache.access(paddr))
            self.bus.ram.write_word(paddr, value & WORD_MASK)
            self.stats.counter("stores").add()

    def _do_exchange(self, thread: Thread, dst: str, addr: Addr,
                     value: int) -> None:
        vaddr = self._effective(thread, addr)
        # An atomic RMW needs both read and write rights.
        translation = self.mmu.translate(vaddr, "write",
                                         user_mode=not self._in_kernel)
        self.mmu.translate(vaddr, "read", user_mode=not self._in_kernel)
        self.sim.advance(translation.cost)
        paddr = translation.paddr
        self._flush_write_buffer(thread)
        self._advance_cycles(self.costs.base_cycles
                             + self.costs.uncached_issue_cycles)
        hit = self.bus.find_window(paddr)
        if hit is not None:
            device, offset = hit
            exchange = getattr(device, "mmio_exchange", None)
            if exchange is None:
                from ..errors import DeviceError

                raise DeviceError(
                    f"device {device.name} does not support atomic exchange")
            old = exchange(offset, value & WORD_MASK, self._access_ctx(thread))
            cost = self.bus.clock.cycles(
                self.bus.timing.device_read_cycles
                + self.bus.timing.device_write_cycles - 4)
            self.sim.advance(cost)
        else:
            old = self.bus.ram.read_word(paddr)
            self.bus.ram.write_word(paddr, value & WORD_MASK)
            self._advance_cycles(self.costs.mem_cycles)
        thread.set_reg(dst, old)
        self.stats.counter("exchanges").add()

    def _drain_fn(self, thread: Thread):
        """Build the write-buffer drain callback for *thread*'s stores."""

        def drain(paddr: int, value: int) -> Time:
            cost = self.bus.write_word(paddr, value, self._access_ctx(thread))
            self.sim.advance(cost)
            return cost

        return drain

    def _flush_write_buffer(self, thread: Thread) -> None:
        self.write_buffer.flush(self._drain_fn(thread))

    def drain_write_buffer(self, thread: Thread) -> None:
        """Flush posted stores on behalf of *thread* (scheduler use).

        The hardware keeps draining across a context switch; the scheduler
        calls this before swapping address spaces so a preempted thread's
        posted stores still reach the device in order.
        """
        self._flush_write_buffer(thread)

    # -- traps ----------------------------------------------------------------------------

    def _do_call_pal(self, thread: Thread, name: str) -> None:
        if name not in self._pal_functions:
            raise ConfigError(f"no PAL function {name!r} installed")
        if self._in_pal:
            raise ConfigError("nested PAL calls are not allowed")
        self.stats.counter("pal_calls").add()
        self._advance_cycles(self.costs.pal_entry_cycles)
        pal_program = self._pal_functions[name]
        self._in_pal = True
        saved_program, saved_pc = thread.program, thread.pc
        try:
            thread.program, thread.pc = pal_program, 0
            # Execute the entire PAL body inside this one step():
            # uninterruptible by construction.
            guard = 4 * PAL_MAX_INSTRUCTIONS
            while thread.pc < len(pal_program) and not thread.halted:
                instr = pal_program.instructions[thread.pc]
                thread.pc = self._execute(thread, instr)
                guard -= 1
                if guard <= 0:
                    raise ConfigError(
                        f"PAL function {name!r} looped past its slot")
        finally:
            self._in_pal = False
            thread.program, thread.pc = saved_program, saved_pc
            thread.halted = False
        self._advance_cycles(self.costs.pal_exit_cycles)

    def _do_syscall(self, thread: Thread, name: str) -> None:
        if name not in self._syscalls:
            raise ConfigError(f"no syscall {name!r} registered")
        self.stats.counter("syscalls").add()
        self._advance_cycles(self.costs.syscall_entry_cycles)
        self._in_kernel = True
        try:
            result = self._syscalls[name](thread, self)
        finally:
            self._in_kernel = False
        thread.set_reg("v0", result & WORD_MASK)
        self._advance_cycles(self.costs.syscall_exit_cycles)

    # -- helpers ---------------------------------------------------------------------------

    def _access_ctx(self, thread: Thread) -> AccessContext:
        return AccessContext(issuer=thread.pid, kernel=self._in_kernel,
                             when=self.sim.now)

    def _advance_cycles(self, cycles: float) -> None:
        self.sim.advance(self.clock.cycles(cycles))

    @staticmethod
    def _value(thread: Thread, operand: Operand) -> int:
        if isinstance(operand, str):
            return thread.reg(operand)
        return operand & WORD_MASK

    @staticmethod
    def _effective(thread: Thread, addr: Addr) -> int:
        base = thread.reg(addr.base) if addr.base is not None else 0
        return (base + addr.disp) & WORD_MASK
