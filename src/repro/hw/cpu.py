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
from typing import Any, Callable, Dict, List, Optional

from ..errors import ConfigError, PageFault, ProtectionFault, ReproError
from ..obs.spans import SpanTracer
from ..sim.clock import Clock
from ..sim.engine import Simulator
from ..sim.stats import Counter, StatRegistry
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
                 spans: Optional[SpanTracer] = None,
                 name: str = "cpu0") -> None:
        self.sim = sim
        self.clock = clock
        self.mmu = mmu
        self.bus = bus
        self.write_buffer = write_buffer
        self.costs = costs
        self.spans = spans if spans is not None else SpanTracer(
            sim.time_source())
        self.name = name
        self.stats = StatRegistry(name)
        self._count = _BoundCounters(self.stats)
        #: Picoseconds per cycle cost, each converted once: the costs
        #: are a handful of constants and round the same way every time.
        self._cycle_ps: Dict[float, Time] = {}
        self._pal_functions: Dict[str, Program] = {}
        self._syscalls: Dict[str, SyscallHandler] = {}
        self._in_pal = False
        self._in_kernel = False
        #: The thread the last step ran (or the scheduler is draining
        #: for): posted stores reach the bus on its behalf.
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
            self._count["faults"].value += 1
            self.spans.instant("cpu.fault", track=self.name,
                               pid=thread.pid, pc=thread.pc,
                               fault=thread.fault.kind, vaddr=exc.vaddr)
            return StepStatus.FAULTED
        thread.pc = next_pc
        thread.instructions_retired += 1
        self._count["instructions"].value += 1
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
        """Run *instr* for *thread*; returns the next pc."""
        execute = _EXECUTE.get(type(instr))
        if execute is None:
            raise ConfigError(f"unknown instruction {instr!r}")
        return execute(self, thread, instr)

    def _op_mb(self, thread: Thread, instr: Mb) -> int:
        self.advance_cycles(self.costs.mb_cycles)
        self.write_buffer.flush(self._drain)
        self._count["mbs"].value += 1
        return thread.pc + 1

    def _op_mov(self, thread: Thread, instr: Mov) -> int:
        thread.set_reg(instr.dst, self._value(thread, instr.src))
        self.advance_cycles(self.costs.base_cycles)
        return thread.pc + 1

    def _op_add(self, thread: Thread, instr: Add) -> int:
        total = self._value(thread, instr.a) + self._value(thread, instr.b)
        thread.set_reg(instr.dst, total)
        self.advance_cycles(self.costs.base_cycles)
        return thread.pc + 1

    def _op_beq(self, thread: Thread, instr: Beq) -> int:
        self.advance_cycles(self.costs.branch_cycles)
        if self._value(thread, instr.a) == self._value(thread, instr.b):
            return thread.program.target(instr.target)
        return thread.pc + 1

    def _op_bne(self, thread: Thread, instr: Bne) -> int:
        self.advance_cycles(self.costs.branch_cycles)
        if self._value(thread, instr.a) != self._value(thread, instr.b):
            return thread.program.target(instr.target)
        return thread.pc + 1

    def _op_jump(self, thread: Thread, instr: Jump) -> int:
        self.advance_cycles(self.costs.branch_cycles)
        return thread.program.target(instr.target)

    def _op_halt(self, thread: Thread, instr: Halt) -> int:
        thread.halted = True
        self.advance_cycles(self.costs.base_cycles)
        # The buffer keeps draining after the program ends; model it
        # as a final flush so no posted store is ever lost.
        self.write_buffer.flush(self._drain)
        return thread.pc + 1

    def _op_nop(self, thread: Thread, instr: Nop) -> int:
        self.advance_cycles(self.costs.base_cycles)
        return thread.pc + 1

    # -- memory paths ------------------------------------------------------------------

    def _op_load(self, thread: Thread, instr: Load) -> int:
        vaddr = self._effective(thread, instr.addr)
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
                self.advance_cycles(self.costs.base_cycles)
                thread.set_reg(instr.dst, forwarded)
                self._count["forwarded_loads"].value += 1
                return thread.pc + 1
            if not self.write_buffer.relaxed:
                # Strongly ordered interface: drain before the load.
                self.write_buffer.flush(self._drain)
            self.advance_cycles(self.costs.base_cycles
                                 + self.costs.uncached_issue_cycles)
            value, bus_cost = self.bus.read_word(paddr, self._access_ctx(thread))
            self.sim.advance(bus_cost)
            self._count["uncached_loads"].value += 1
        else:
            self.advance_cycles(self.costs.mem_cycles)
            value = self.bus.ram.read_word(paddr)
            self._count["loads"].value += 1
        thread.set_reg(instr.dst, value)
        return thread.pc + 1

    def _op_store(self, thread: Thread, instr: Store) -> int:
        vaddr = self._effective(thread, instr.addr)
        value = self._value(thread, instr.src) & WORD_MASK
        translation = self.mmu.translate(vaddr, "write",
                                         user_mode=not self._in_kernel)
        self.sim.advance(translation.cost)
        paddr = translation.paddr
        if self.bus.is_device(paddr):
            self.advance_cycles(self.costs.base_cycles
                                 + self.costs.uncached_issue_cycles)
            # post() advances time inside the drain if it has to make
            # room; its returned bus cost is informational.
            self.write_buffer.post(paddr, value, self._drain)
            self._count["uncached_stores"].value += 1
        else:
            self.advance_cycles(self.costs.mem_cycles)
            self.bus.ram.write_word(paddr, value)
            self._count["stores"].value += 1
        return thread.pc + 1

    def _op_exchange(self, thread: Thread, instr: CompareExchange) -> int:
        vaddr = self._effective(thread, instr.addr)
        value = self._value(thread, instr.src) & WORD_MASK
        # An atomic RMW needs both read and write rights.
        translation = self.mmu.translate(vaddr, "write",
                                         user_mode=not self._in_kernel)
        self.mmu.translate(vaddr, "read", user_mode=not self._in_kernel)
        self.sim.advance(translation.cost)
        paddr = translation.paddr
        self.write_buffer.flush(self._drain)
        self.advance_cycles(self.costs.base_cycles
                             + self.costs.uncached_issue_cycles)
        hit = self.bus.find_window(paddr)
        if hit is not None:
            device, offset = hit
            exchange = getattr(device, "mmio_exchange", None)
            if exchange is None:
                from ..errors import DeviceError

                raise DeviceError(
                    f"device {device.name} does not support atomic exchange")
            old = exchange(offset, value, self._access_ctx(thread))
            cost = self.bus.clock.cycles(
                self.bus.timing.device_read_cycles
                + self.bus.timing.device_write_cycles - 4)
            self.sim.advance(cost)
        else:
            old = self.bus.ram.read_word(paddr)
            self.bus.ram.write_word(paddr, value)
            self.advance_cycles(self.costs.mem_cycles)
        thread.set_reg(instr.dst, old)
        self._count["exchanges"].value += 1
        return thread.pc + 1

    def _drain(self, paddr: int, value: int) -> Time:
        """The write buffer's drain target: one posted store reaches the
        bus on behalf of the current thread."""
        cost = self.bus.write_word(paddr, value,
                                   self._access_ctx(self._current_thread))
        self.sim.advance(cost)
        return cost

    def drain_write_buffer(self, thread: Thread) -> None:
        """Flush posted stores on behalf of *thread* (scheduler use).

        The hardware keeps draining across a context switch; the scheduler
        calls this before swapping address spaces so a preempted thread's
        posted stores still reach the device in order.
        """
        self._current_thread = thread
        self.write_buffer.flush(self._drain)

    # -- traps ----------------------------------------------------------------------------

    def _op_call_pal(self, thread: Thread, instr: CallPal) -> int:
        name = instr.name
        if name not in self._pal_functions:
            raise ConfigError(f"no PAL function {name!r} installed")
        if self._in_pal:
            raise ConfigError("nested PAL calls are not allowed")
        self._count["pal_calls"].value += 1
        self.advance_cycles(self.costs.pal_entry_cycles)
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
        self.advance_cycles(self.costs.pal_exit_cycles)
        return thread.pc + 1

    def _op_syscall(self, thread: Thread, instr: Syscall) -> int:
        name = instr.name
        if name not in self._syscalls:
            raise ConfigError(f"no syscall {name!r} registered")
        self._count["syscalls"].value += 1
        self.advance_cycles(self.costs.syscall_entry_cycles)
        self._in_kernel = True
        try:
            result = self._syscalls[name](thread, self)
        finally:
            self._in_kernel = False
        thread.set_reg("v0", result & WORD_MASK)
        self.advance_cycles(self.costs.syscall_exit_cycles)
        return thread.pc + 1

    # -- helpers ---------------------------------------------------------------------------

    def _access_ctx(self, thread: Thread) -> AccessContext:
        return AccessContext(issuer=thread.pid, kernel=self._in_kernel,
                             when=self.sim.now)

    def advance_cycles(self, cycles: float) -> None:
        """Spend *cycles* CPU cycles of simulated time."""
        ps = self._cycle_ps.get(cycles)
        if ps is None:
            ps = self._cycle_ps[cycles] = self.clock.cycles(cycles)
        self.sim.advance(ps)

    @staticmethod
    def _value(thread: Thread, operand: Operand) -> int:
        if isinstance(operand, str):
            return thread.reg(operand)
        return operand & WORD_MASK

    @staticmethod
    def _effective(thread: Thread, addr: Addr) -> int:
        base = thread.reg(addr.base) if addr.base is not None else 0
        return (base + addr.disp) & WORD_MASK


class _BoundCounters(Dict[str, Counter]):
    """Counters of one registry by name, each bound on first use.

    A counter joins the registry when first counted, exactly as
    ``StatRegistry.counter`` would have created it, so snapshots list
    the same counters in the same order; later counts are one dict hit.
    """

    def __init__(self, stats: StatRegistry) -> None:
        super().__init__()
        self._stats = stats

    def __missing__(self, name: str) -> Counter:
        counter = self[name] = self._stats.counter(name)
        return counter


#: One handler per instruction type, so :meth:`Cpu._execute` dispatches
#: with a single lookup.
_EXECUTE: Dict[type, Callable[[Cpu, Thread, Any], int]] = {
    Load: Cpu._op_load,
    Store: Cpu._op_store,
    CompareExchange: Cpu._op_exchange,
    Mb: Cpu._op_mb,
    Mov: Cpu._op_mov,
    Add: Cpu._op_add,
    Beq: Cpu._op_beq,
    Bne: Cpu._op_bne,
    Jump: Cpu._op_jump,
    CallPal: Cpu._op_call_pal,
    Syscall: Cpu._op_syscall,
    Halt: Cpu._op_halt,
    Nop: Cpu._op_nop,
}
