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

from ..errors import (
    AlignmentFault,
    ConfigError,
    PageFault,
    ProtectionFault,
    ReproError,
)
from ..obs.spans import SpanTracer
from ..sim.clock import Clock
from ..sim.engine import Simulator
from ..sim.stats import BoundStats, StatRegistry
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
        self._count = BoundStats(self.stats.counter)
        #: Picoseconds per cycle cost, each converted once: the costs
        #: are a handful of constants and round the same way every time.
        self._cycle_ps: Dict[float, Time] = {}
        # The instruction costs the handlers charge, in ps, converted
        # once here rather than on every instruction.
        cycles = clock.cycles
        self._base_ps = cycles(costs.base_cycles)
        self._mem_ps = cycles(costs.mem_cycles)
        self._uncached_ps = cycles(costs.base_cycles
                                   + costs.uncached_issue_cycles)
        self._mb_ps = cycles(costs.mb_cycles)
        self._branch_ps = cycles(costs.branch_cycles)
        self._pal_entry_ps = cycles(costs.pal_entry_cycles)
        self._pal_exit_ps = cycles(costs.pal_exit_cycles)
        self._syscall_entry_ps = cycles(costs.syscall_entry_cycles)
        self._syscall_exit_ps = cycles(costs.syscall_exit_cycles)
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
        status = self._retire(thread, 1)
        return StepStatus.RUNNING if status is None else status

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
        status = self._retire(thread, max_instructions)
        if status is None:
            raise ReproError(
                f"thread {thread.pid} exceeded {max_instructions} "
                f"instructions")
        return status

    def _retire(self, thread: Thread, budget: int) -> Optional[StepStatus]:
        """Execute *thread* for up to *budget* steps: the one loop behind
        :meth:`step` (a budget of one) and :meth:`run`.

        A step retires one instruction, or finds the program ended (the
        thread halts) or the thread already done.  Returns the status
        the thread stopped in, or None if it is still running when the
        budget runs out.
        """
        if budget < 1:
            return None
        if thread.halted:
            return StepStatus.HALTED
        if thread.fault is not None:
            return StepStatus.FAULTED
        instructions = thread.program.instructions
        end = len(instructions)
        count = self._count
        self._current_thread = thread
        for _ in range(budget):
            pc = thread.pc
            if pc >= end:
                thread.halted = True
                return StepStatus.HALTED
            instr = instructions[pc]
            execute = _EXECUTE.get(type(instr))
            if execute is None:
                raise ConfigError(f"unknown instruction {instr!r}")
            try:
                next_pc = execute(self, thread, instr)
            except (PageFault, ProtectionFault, AlignmentFault) as exc:
                thread.fault = Fault(
                    kind=type(exc).__name__,
                    vaddr=exc.vaddr,
                    access=exc.access,
                    pc=thread.pc,
                )
                count["faults"].value += 1
                self.spans.instant("cpu.fault", track=self.name,
                                   pid=thread.pid, pc=thread.pc,
                                   fault=thread.fault.kind, vaddr=exc.vaddr)
                return StepStatus.FAULTED
            thread.pc = next_pc
            thread.instructions_retired += 1
            count["instructions"].value += 1
            if thread.halted:
                return StepStatus.HALTED
        return None

    # -- per-instruction semantics ---------------------------------------------------

    def _op_mb(self, thread: Thread, instr: Mb) -> int:
        self.sim.advance(self._mb_ps)
        self.write_buffer.flush(self._drain)
        self._count["mbs"].value += 1
        return thread.pc + 1

    def _op_mov(self, thread: Thread, instr: Mov) -> int:
        src = instr.src
        thread.set_reg(instr.dst, thread.reg(src) if isinstance(src, str)
                       else src & WORD_MASK)
        self.sim.advance(self._base_ps)
        return thread.pc + 1

    def _op_add(self, thread: Thread, instr: Add) -> int:
        thread.set_reg(instr.dst,
                       _value(thread, instr.a) + _value(thread, instr.b))
        self.sim.advance(self._base_ps)
        return thread.pc + 1

    def _op_beq(self, thread: Thread, instr: Beq) -> int:
        self.sim.advance(self._branch_ps)
        if _value(thread, instr.a) == _value(thread, instr.b):
            return thread.program.target(instr.target)
        return thread.pc + 1

    def _op_bne(self, thread: Thread, instr: Bne) -> int:
        self.sim.advance(self._branch_ps)
        if _value(thread, instr.a) != _value(thread, instr.b):
            return thread.program.target(instr.target)
        return thread.pc + 1

    def _op_jump(self, thread: Thread, instr: Jump) -> int:
        self.sim.advance(self._branch_ps)
        return thread.program.target(instr.target)

    def _op_halt(self, thread: Thread, instr: Halt) -> int:
        thread.halted = True
        self.sim.advance(self._base_ps)
        # The buffer keeps draining after the program ends; model it
        # as a final flush so no posted store is ever lost.
        self.write_buffer.flush(self._drain)
        return thread.pc + 1

    def _op_nop(self, thread: Thread, instr: Nop) -> int:
        self.sim.advance(self._base_ps)
        return thread.pc + 1

    # -- memory paths ------------------------------------------------------------------

    def _op_load(self, thread: Thread, instr: Load) -> int:
        addr = instr.addr
        vaddr = (addr.disp if addr.base is None
                 else thread.reg(addr.base) + addr.disp) & WORD_MASK
        translation = self.mmu.translate(vaddr, "read",
                                         user_mode=not self._in_kernel)
        paddr = translation.paddr
        bus = self.bus
        # A RAM word access traps unless naturally aligned, before it
        # costs anything (as a page fault does); device windows decode
        # any offset.
        if paddr & 7 and not bus.is_device(paddr):
            raise AlignmentFault(vaddr, "read")
        sim = self.sim
        sim.advance(translation.cost)
        if bus.is_device(paddr):
            forwarded = self.write_buffer.forward(paddr)
            if forwarded is not None:
                # Relaxed write buffer: the load is serviced from a
                # pending same-address store and never reaches the device
                # (footnote 6's failure mode).
                sim.advance(self._base_ps)
                thread.set_reg(instr.dst, forwarded)
                self._count["forwarded_loads"].value += 1
                return thread.pc + 1
            if not self.write_buffer.relaxed:
                # Strongly ordered interface: drain before the load.
                self.write_buffer.flush(self._drain)
            sim.advance(self._uncached_ps)
            value, bus_cost = bus.read_word(paddr, AccessContext(
                thread.pid, self._in_kernel, sim.now))
            sim.advance(bus_cost)
            self._count["uncached_loads"].value += 1
        else:
            sim.advance(self._mem_ps)
            value = bus.ram.read_word(paddr)
            self._count["loads"].value += 1
        thread.set_reg(instr.dst, value)
        return thread.pc + 1

    def _op_store(self, thread: Thread, instr: Store) -> int:
        addr = instr.addr
        vaddr = (addr.disp if addr.base is None
                 else thread.reg(addr.base) + addr.disp) & WORD_MASK
        src = instr.src
        value = (thread.reg(src) if isinstance(src, str)
                 else src) & WORD_MASK
        translation = self.mmu.translate(vaddr, "write",
                                         user_mode=not self._in_kernel)
        paddr = translation.paddr
        # Nothing runs between the translation and the issue, so one
        # advance charges both.
        if self.bus.is_device(paddr):
            self.sim.advance(translation.cost + self._uncached_ps)
            # post() advances time inside the drain if it has to make
            # room; its returned bus cost is informational.
            self.write_buffer.post(paddr, value, self._drain)
            self._count["uncached_stores"].value += 1
        else:
            if paddr & 7:
                raise AlignmentFault(vaddr, "write")
            self.sim.advance(translation.cost + self._mem_ps)
            self.bus.ram.write_word(paddr, value)
            self._count["stores"].value += 1
        return thread.pc + 1

    def _op_exchange(self, thread: Thread, instr: CompareExchange) -> int:
        vaddr = _effective(thread, instr.addr)
        value = _value(thread, instr.src) & WORD_MASK
        # An atomic RMW needs both read and write rights.
        translation = self.mmu.translate(vaddr, "write",
                                         user_mode=not self._in_kernel)
        self.mmu.translate(vaddr, "read", user_mode=not self._in_kernel)
        paddr = translation.paddr
        if paddr & 7 and not self.bus.is_device(paddr):
            raise AlignmentFault(vaddr, "write")
        self.sim.advance(translation.cost)
        self.write_buffer.flush(self._drain)
        self.sim.advance(self._uncached_ps)
        hit = self.bus.find_window(paddr)
        if hit is not None:
            device, offset = hit
            exchange = getattr(device, "mmio_exchange", None)
            if exchange is None:
                from ..errors import DeviceError

                raise DeviceError(
                    f"device {device.name} does not support atomic exchange")
            old = exchange(offset, value, AccessContext(
                thread.pid, self._in_kernel, self.sim.now))
            cost = self.bus.clock.cycles(
                self.bus.timing.device_read_cycles
                + self.bus.timing.device_write_cycles - 4)
            self.sim.advance(cost)
        else:
            old = self.bus.ram.read_word(paddr)
            self.bus.ram.write_word(paddr, value)
            self.sim.advance(self._mem_ps)
        thread.set_reg(instr.dst, old)
        self._count["exchanges"].value += 1
        return thread.pc + 1

    def _drain(self, paddr: int, value: int) -> Time:
        """The write buffer's drain target: one posted store reaches the
        bus on behalf of the current thread."""
        sim = self.sim
        cost = self.bus.write_word(paddr, value, AccessContext(
            self._current_thread.pid, self._in_kernel, sim.now))
        sim.advance(cost)
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
        self.sim.advance(self._pal_entry_ps)
        pal_program = self._pal_functions[name]
        self._in_pal = True
        saved_program, saved_pc = thread.program, thread.pc
        try:
            thread.program, thread.pc = pal_program, 0
            # Execute the entire PAL body inside this one step():
            # uninterruptible by construction.
            guard = 4 * PAL_MAX_INSTRUCTIONS
            body = pal_program.instructions
            while thread.pc < len(body) and not thread.halted:
                instr = body[thread.pc]
                execute = _EXECUTE.get(type(instr))
                if execute is None:
                    raise ConfigError(f"unknown instruction {instr!r}")
                thread.pc = execute(self, thread, instr)
                guard -= 1
                if guard <= 0:
                    raise ConfigError(
                        f"PAL function {name!r} looped past its slot")
        finally:
            self._in_pal = False
            thread.program, thread.pc = saved_program, saved_pc
            thread.halted = False
        self.sim.advance(self._pal_exit_ps)
        return thread.pc + 1

    def _op_syscall(self, thread: Thread, instr: Syscall) -> int:
        name = instr.name
        if name not in self._syscalls:
            raise ConfigError(f"no syscall {name!r} registered")
        self._count["syscalls"].value += 1
        self.sim.advance(self._syscall_entry_ps)
        self._in_kernel = True
        try:
            result = self._syscalls[name](thread, self)
        finally:
            self._in_kernel = False
        thread.set_reg("v0", result & WORD_MASK)
        self.sim.advance(self._syscall_exit_ps)
        return thread.pc + 1

    # -- helpers ---------------------------------------------------------------------------

    def advance_cycles(self, cycles: float) -> None:
        """Spend *cycles* CPU cycles of simulated time."""
        ps = self._cycle_ps.get(cycles)
        if ps is None:
            ps = self._cycle_ps[cycles] = self.clock.cycles(cycles)
        self.sim.advance(ps)


def _value(thread: Thread, operand: Operand) -> int:
    if isinstance(operand, str):
        return thread.reg(operand)
    return operand & WORD_MASK


def _effective(thread: Thread, addr: Addr) -> int:
    base = thread.reg(addr.base) if addr.base is not None else 0
    return (base + addr.disp) & WORD_MASK


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
