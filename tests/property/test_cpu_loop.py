"""``Cpu.run`` and ``Cpu.step`` are one loop: same program, same machine.

Hypothesis draws programs of moves, adds, branches, jumps, no-ops and
halts, with loads and stores to RAM, to a device window and to an
unmapped page (so faults fire), barriers, a syscall and a PAL call, and
an instruction budget that may run out.  Each program runs twice on
identical fresh machines: once through :meth:`Cpu.run`, once by calling
:meth:`Cpu.step` until the thread is done or the budget is spent.  The
two must leave everything the simulation can observe equal: registers,
pc, fault, retired count, simulated time, write buffer, every
device-visible access with its timestamp, the TLB counters, and the CPU
and bus stat snapshots with their names in the same order.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.hw.bus import TURBOCHANNEL_12_5, Bus
from repro.hw.cpu import Cpu, CpuCosts, StepStatus, Thread
from repro.hw.device import MmioDevice
from repro.hw.isa import (
    Add,
    Addr,
    Beq,
    Bne,
    CallPal,
    Halt,
    Jump,
    Label,
    Load,
    Mb,
    Mov,
    Nop,
    Store,
    Syscall,
    assemble,
)
from repro.hw.memory import PhysicalMemory
from repro.hw.mmu import Mmu
from repro.hw.pagetable import PAGE_SIZE, PageTable, Perm, Pte
from repro.hw.tlb import Tlb
from repro.hw.writebuffer import WriteBuffer
from repro.sim.clock import Clock
from repro.sim.engine import Simulator
from repro.units import kib, mhz

RAM_V, RAM_P = 0x10000, 0x4000
ROM_V, ROM_P = 0x12000, 0x6000      # mapped read-only
DEV_V, DEV_P = 0x20000, 1 << 40
UNMAPPED_V = 0x30000
REGS = ("v0", "a0", "a1", "t0", "t1", "zero")
LABELS = ("L0", "L1", "L2")


class Device(MmioDevice):
    """Logs every access it sees, with its bus timestamp."""

    def __init__(self) -> None:
        super().__init__("dev")
        self.log: List[Tuple[Any, ...]] = []

    def mmio_read(self, offset, ctx):
        self.log.append(("R", offset, ctx))
        return offset * 3 + len(self.log)

    def mmio_write(self, offset, value, ctx):
        self.log.append(("W", offset, value, ctx))


def machine() -> Tuple[Simulator, Bus, Device, Cpu, PageTable]:
    sim = Simulator()
    bus = Bus(PhysicalMemory(kib(64)), TURBOCHANNEL_12_5)
    device = Device()
    bus.attach(device, DEV_P, PAGE_SIZE)
    clock = Clock("cpu", mhz(150))
    cpu = Cpu(sim, clock, Mmu(Tlb(capacity=2), walk_cost=clock.cycles(7)),
              bus, WriteBuffer(capacity=2), CpuCosts())

    def syscall(thread, cpu_):
        cpu_.advance_cycles(40)
        return thread.reg("a0") + thread.reg("a1")

    cpu.register_syscall("sum", syscall)
    cpu.install_pal_function("pal", assemble([
        Store(Addr(None, DEV_V + 16), "a0"),
        Load("a1", Addr(None, DEV_V + 24)),
    ]))
    table = PageTable("t")
    table.map_page(RAM_V, Pte(RAM_P, Perm.RW))
    table.map_page(ROM_V, Pte(ROM_P, Perm.READ))
    table.map_page(DEV_V, Pte(DEV_P, Perm.RW, uncached=True))
    return sim, bus, device, cpu, table


operand = st.one_of(st.sampled_from(REGS), st.integers(0, 1 << 64))
address = st.one_of(
    st.builds(Addr, st.none(),
              st.sampled_from((RAM_V, RAM_V + 8, ROM_V, DEV_V, DEV_V + 8,
                               UNMAPPED_V))),
    st.builds(Addr, st.sampled_from(("t1", "zero")),
              st.sampled_from((0, 8, RAM_V, DEV_V))))
instruction = st.one_of(
    st.builds(Mov, st.sampled_from(REGS), operand),
    st.builds(Add, st.sampled_from(REGS), operand, operand),
    st.builds(Beq, operand, operand, st.sampled_from(LABELS)),
    st.builds(Bne, operand, operand, st.sampled_from(LABELS)),
    st.builds(Jump, st.sampled_from(LABELS)),
    st.builds(Nop), st.builds(Halt), st.builds(Mb),
    st.builds(Load, st.sampled_from(REGS), address),
    st.builds(Store, address, operand),
    st.just(Syscall("sum")), st.just(CallPal("pal")),
)


@st.composite
def programs(draw):
    body = draw(st.lists(instruction, min_size=1, max_size=14))
    for label in LABELS:
        body.insert(draw(st.integers(0, len(body))), Label(label))
    return assemble(body)


def observe(sim, bus, device, cpu, thread, outcome) -> Dict[str, Any]:
    tlb = cpu.mmu.tlb
    wb = cpu.write_buffer
    return {
        "outcome": outcome,
        "registers": dict(thread.registers),
        "pc": thread.pc, "halted": thread.halted, "fault": thread.fault,
        "retired": thread.instructions_retired,
        "now": sim.now, "events": sim.events_fired,
        "write_buffer": (wb.pending_addresses(), wb.stores_posted,
                         wb.stores_collapsed, wb.drains),
        "device": list(device.log),
        "tlb": (tlb.hits, tlb.misses, tlb.flushes),
        "cpu_stats": list(cpu.stats.snapshot().items()),
        "bus_stats": list(bus.stats.snapshot().items()),
    }


def through_run(program, registers, budget):
    sim, bus, device, cpu, table = machine()
    thread = Thread(pid=7, page_table=table, program=program,
                    registers=dict(registers))
    try:
        outcome: Any = cpu.run(thread, max_instructions=budget)
    except ReproError:
        outcome = "budget"
    return observe(sim, bus, device, cpu, thread, outcome)


def through_step(program, registers, budget):
    sim, bus, device, cpu, table = machine()
    thread = Thread(pid=7, page_table=table, program=program,
                    registers=dict(registers))
    cpu.mmu.activate(table, flush=True)  # as run() does on first use
    outcome: Any = "budget"
    for _ in range(budget):
        status = cpu.step(thread)
        if status is not StepStatus.RUNNING:
            outcome = status
            break
    return observe(sim, bus, device, cpu, thread, outcome)


@settings(max_examples=300, deadline=None)
@given(program=programs(),
       t1=st.sampled_from((0, RAM_V, DEV_V, UNMAPPED_V)),
       a0=st.integers(0, 1 << 20),
       budget=st.integers(1, 40))
def test_run_and_step_retire_identically(program, t1, a0, budget):
    registers = {"t1": t1, "a0": a0}
    assert (through_run(program, registers, budget)
            == through_step(program, registers, budget))


def test_a_done_thread_stays_done():
    """Stepping or running a halted or faulted thread changes nothing."""
    for body in ([Halt()], [Load("v0", Addr(None, UNMAPPED_V))]):
        first = through_step(assemble(body), {}, 1)
        sim, bus, device, cpu, table = machine()
        thread = Thread(pid=7, page_table=table, program=assemble(body))
        cpu.run(thread)
        before = observe(sim, bus, device, cpu, thread, None)
        assert cpu.step(thread) is first["outcome"]
        assert cpu.run(thread) is first["outcome"]
        assert observe(sim, bus, device, cpu, thread, None) == before
