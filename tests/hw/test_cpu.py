"""Unit tests for the CPU model: execution, memory paths, traps, PAL."""

import pytest

from repro.errors import ConfigError
from repro.hw.bus import Bus, TURBOCHANNEL_12_5
from repro.hw.cpu import Cpu, CpuCosts, Fault, StepStatus, Thread
from repro.hw.device import MmioDevice
from repro.hw.isa import (
    Add,
    Addr,
    Beq,
    Bne,
    CallPal,
    CompareExchange,
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

RAM_V = 0x10000          # virtual base of a mapped RAM page
RAM_P = 0x4000           # its physical frame
DEV_V = 0x20000          # virtual base of a mapped device page
DEV_BASE = 1 << 40       # device physical window


class RecordingDevice(MmioDevice):
    """Records accesses in arrival order; reads echo offset + 1000."""

    def __init__(self):
        super().__init__("rec")
        self.log = []

    def mmio_read(self, offset, ctx):
        self.log.append(("R", offset, ctx.issuer))
        return offset + 1000

    def mmio_write(self, offset, value, ctx):
        self.log.append(("W", offset, value))

    def mmio_exchange(self, offset, value, ctx):
        self.log.append(("X", offset, value))
        return 777


def make_machine(relaxed=False):
    sim = Simulator()
    ram = PhysicalMemory(kib(64))
    bus = Bus(ram, TURBOCHANNEL_12_5)
    device = RecordingDevice()
    bus.attach(device, DEV_BASE, PAGE_SIZE)
    mmu = Mmu(Tlb(), walk_cost=0)
    wb = WriteBuffer(relaxed=relaxed)
    cpu = Cpu(sim, Clock("cpu", mhz(150)), mmu, bus, wb, CpuCosts())
    table = PageTable("test")
    table.map_page(RAM_V, Pte(RAM_P, Perm.RW))
    table.map_page(DEV_V, Pte(DEV_BASE, Perm.RW, uncached=True))
    return sim, ram, bus, device, cpu, table


def run(cpu, table, instructions, regs=None):
    thread = Thread(pid=1, page_table=table,
                    program=assemble(list(instructions) + [Halt()]))
    if regs:
        for name, value in regs.items():
            thread.set_reg(name, value)
    status = cpu.run(thread)
    return thread, status


def test_mov_and_add():
    _, _, _, _, cpu, table = make_machine()
    thread, status = run(cpu, table, [
        Mov("t0", 5), Add("t1", "t0", 7), Add("t2", "t1", "t0")])
    assert status is StepStatus.HALTED
    assert thread.reg("t1") == 12
    assert thread.reg("t2") == 17


def test_add_wraps_64_bits():
    _, _, _, _, cpu, table = make_machine()
    thread, _ = run(cpu, table, [
        Mov("t0", (1 << 64) - 1), Add("t1", "t0", 2)])
    assert thread.reg("t1") == 1


def test_zero_register_reads_zero_and_ignores_writes():
    _, _, _, _, cpu, table = make_machine()
    thread, _ = run(cpu, table, [Mov("zero", 42), Add("t0", "zero", 1)])
    assert thread.reg("t0") == 1


def test_ram_store_load_roundtrip():
    _, ram, _, _, cpu, table = make_machine()
    thread, _ = run(cpu, table, [
        Store(Addr(None, RAM_V + 16), 0xABCD),
        Load("t0", Addr(None, RAM_V + 16))])
    assert thread.reg("t0") == 0xABCD
    assert ram.read_word(RAM_P + 16) == 0xABCD


def test_base_displacement_addressing():
    _, _, _, _, cpu, table = make_machine()
    thread, _ = run(cpu, table, [
        Store(Addr("a0", 8), 7), Load("t0", Addr("a0", 8))],
        regs={"a0": RAM_V})
    assert thread.reg("t0") == 7


def test_branches_and_labels():
    _, _, _, _, cpu, table = make_machine()
    thread, _ = run(cpu, table, [
        Mov("t0", 0),
        Label("loop"),
        Add("t0", "t0", 1),
        Bne("t0", 3, "loop"),
        Mov("t1", 99),
    ])
    assert thread.reg("t0") == 3
    assert thread.reg("t1") == 99


def test_beq_taken_and_not_taken():
    _, _, _, _, cpu, table = make_machine()
    thread, _ = run(cpu, table, [
        Beq(1, 1, "skip"), Mov("t0", 111), Label("skip"), Mov("t1", 5)])
    assert thread.reg("t0") == 0
    assert thread.reg("t1") == 5


def test_jump():
    _, _, _, _, cpu, table = make_machine()
    thread, _ = run(cpu, table, [
        Jump("end"), Mov("t0", 1), Label("end"), Nop()])
    assert thread.reg("t0") == 0


def test_uncached_store_is_posted_then_drained_by_load():
    _, _, _, device, cpu, table = make_machine()
    run(cpu, table, [
        Store(Addr(None, DEV_V + 8), 42),
        Load("t0", Addr(None, DEV_V + 16))])
    # Strong ordering: the store reaches the device before the load.
    assert device.log[0] == ("W", 8, 42)
    assert device.log[1][0] == "R"


def test_uncached_load_returns_device_value():
    _, _, _, _, cpu, table = make_machine()
    thread, _ = run(cpu, table, [Load("t0", Addr(None, DEV_V + 24))])
    assert thread.reg("t0") == 24 + 1000


def test_halt_flushes_pending_stores():
    _, _, _, device, cpu, table = make_machine()
    run(cpu, table, [Store(Addr(None, DEV_V), 1)])
    assert ("W", 0, 1) in device.log


def test_mb_flushes_pending_stores():
    _, _, _, device, cpu, table = make_machine()
    run(cpu, table, [Store(Addr(None, DEV_V), 5), Mb(), Nop()])
    assert device.log[0] == ("W", 0, 5)


def test_relaxed_load_bypasses_pending_store():
    _, _, _, device, cpu, table = make_machine(relaxed=True)
    run(cpu, table, [
        Store(Addr(None, DEV_V + 8), 42),
        Load("t0", Addr(None, DEV_V + 16))])
    # The load reached the device FIRST; the store drained at Halt.
    assert device.log[0][0] == "R"
    assert device.log[1] == ("W", 8, 42)


def test_relaxed_same_address_load_forwarded_never_reaches_device():
    _, _, _, device, cpu, table = make_machine(relaxed=True)
    thread, _ = run(cpu, table, [
        Store(Addr(None, DEV_V + 8), 42),
        Load("t0", Addr(None, DEV_V + 8)),
        Mb()])
    assert thread.reg("t0") == 42          # serviced by the buffer
    assert device.log == [("W", 8, 42)]    # only the eventual drain


def _cex():
    from repro.hw.isa import CompareExchange

    return CompareExchange("v0", Addr(None, DEV_V + 8), 64)


def test_compare_exchange_returns_old_value():
    _, _, _, device, cpu, table = make_machine()
    thread, _ = run(cpu, table, [_cex()])
    assert thread.reg("v0") == 777
    assert device.log == [("X", 8, 64)]


def test_compare_exchange_flushes_earlier_stores_first():
    _, _, _, device, cpu, table = make_machine()
    run(cpu, table, [Store(Addr(None, DEV_V), 5), _cex()])
    assert device.log == [("W", 0, 5), ("X", 8, 64)]


def test_fault_on_unmapped_address():
    _, _, _, _, cpu, table = make_machine()
    thread, status = run(cpu, table, [Load("t0", Addr(None, 0xDEAD0000))])
    assert status is StepStatus.FAULTED
    assert thread.fault is not None
    assert thread.fault.kind == "PageFault"


def test_fault_on_protection_violation():
    sim, _, _, _, cpu, table = make_machine()
    table.protect_page(RAM_V, Perm.READ)
    thread, status = run(cpu, table, [Store(Addr(None, RAM_V), 1)])
    assert status is StepStatus.FAULTED
    assert thread.fault.kind == "ProtectionFault"
    assert thread.fault.access == "write"


def test_faulted_thread_is_done():
    _, _, _, _, cpu, table = make_machine()
    thread, _ = run(cpu, table, [Load("t0", Addr(None, 0xDEAD0000))])
    assert thread.done
    assert cpu.step(thread) is StepStatus.FAULTED


@pytest.mark.parametrize("instr, access", [
    (Load("t0", Addr("t1", 0x10)), "read"),
    (Store(Addr("t1", 0x10), 0xFF), "write"),
    (CompareExchange("t0", Addr("t1", 0x10), 0xFF), "write"),
], ids=["load", "store", "exchange"])
def test_unaligned_ram_access_faults_the_thread(instr, access):
    sim, ram, _, device, cpu, table = make_machine()
    cpu.mmu.activate(table, flush=True)
    thread = Thread(pid=1, page_table=table, program=assemble(
        [Store(Addr(None, DEV_V), 5), instr, Halt()]))
    thread.set_reg("t1", RAM_V + 1)
    assert cpu.step(thread) is StepStatus.RUNNING  # posts the device store
    before = (sim.now, ram.read(RAM_P, PAGE_SIZE))
    assert cpu.step(thread) is StepStatus.FAULTED
    assert thread.fault == Fault("AlignmentFault", RAM_V + 0x11, access, 1)
    # Nothing was charged, written or drained before the trap.
    assert (sim.now, ram.read(RAM_P, PAGE_SIZE)) == before
    assert device.log == []
    assert cpu.run(thread) is StepStatus.FAULTED


def test_time_advances_monotonically():
    sim, _, _, _, cpu, table = make_machine()
    before = sim.now
    run(cpu, table, [Mov("t0", 1), Store(Addr(None, DEV_V), 2)])
    assert sim.now > before


def test_uncached_store_costs_more_than_mov():
    sim, _, _, _, cpu, table = make_machine()
    t0 = sim.now
    run(cpu, table, [Mov("t0", 1)])
    mov_cost = sim.now - t0
    t1 = sim.now
    run(cpu, table, [Store(Addr(None, DEV_V), 1)])
    store_cost = sim.now - t1
    assert store_cost > mov_cost


def test_syscall_dispatch_and_result():
    _, _, _, _, cpu, table = make_machine()

    def handler(thread, cpu_):
        return thread.reg("a0") + thread.reg("a1")

    cpu.register_syscall("sum", handler)
    thread, _ = run(cpu, table, [
        Mov("a0", 4), Mov("a1", 5), Syscall("sum")])
    assert thread.reg("v0") == 9


def test_syscall_unknown_raises():
    _, _, _, _, cpu, table = make_machine()
    with pytest.raises(ConfigError):
        run(cpu, table, [Syscall("nope")])


def test_syscall_charges_entry_and_exit():
    sim, _, _, _, cpu, table = make_machine()
    cpu.register_syscall("empty", lambda thread, cpu_: 0)
    t0 = sim.now
    run(cpu, table, [Syscall("empty")])
    elapsed = sim.now - t0
    expected_min = cpu.clock.cycles(
        cpu.costs.syscall_entry_cycles + cpu.costs.syscall_exit_cycles)
    assert elapsed >= expected_min


def test_pal_function_executes_and_returns():
    _, _, _, _, cpu, table = make_machine()
    pal = assemble([Mov("v0", 123)], name="p")
    cpu.install_pal_function("p", pal)
    thread, _ = run(cpu, table, [CallPal("p")])
    assert thread.reg("v0") == 123


def test_pal_uses_caller_registers():
    _, _, _, _, cpu, table = make_machine()
    pal = assemble([Add("v0", "a0", "a1")])
    cpu.install_pal_function("sum", pal)
    thread, _ = run(cpu, table, [Mov("a0", 3), Mov("a1", 4),
                                 CallPal("sum")])
    assert thread.reg("v0") == 7


def test_pal_respects_user_page_protection():
    _, _, _, _, cpu, table = make_machine()
    table.protect_page(RAM_V, Perm.READ)
    pal = assemble([Store(Addr(None, RAM_V), 9)])
    cpu.install_pal_function("bad", pal)
    thread, status = run(cpu, table, [CallPal("bad")])
    assert status is StepStatus.FAULTED


def test_pal_length_limit():
    _, _, _, _, cpu, table = make_machine()
    too_long = assemble([Nop()] * 17)
    with pytest.raises(ConfigError):
        cpu.install_pal_function("big", too_long)


def test_pal_may_not_nest_or_trap():
    _, _, _, _, cpu, table = make_machine()
    with pytest.raises(ConfigError):
        cpu.install_pal_function("t", assemble([Syscall("x")]))
    with pytest.raises(ConfigError):
        cpu.install_pal_function("t", assemble([CallPal("other")]))


def test_pal_completes_within_one_step():
    """The whole PAL body runs inside a single step() — uninterruptible."""
    _, _, _, device, cpu, table = make_machine()
    pal = assemble([
        Store(Addr(None, DEV_V), 1),
        Load("v0", Addr(None, DEV_V + 8)),
    ])
    cpu.install_pal_function("dma2", pal)
    thread = Thread(pid=1, page_table=table,
                    program=assemble([CallPal("dma2"), Halt()]))
    cpu.mmu.activate(table, flush=False)
    status = cpu.step(thread)  # ONE step
    assert status is StepStatus.RUNNING
    assert ("W", 0, 1) in device.log
    assert any(entry[0] == "R" for entry in device.log)


def test_unknown_pal_call_raises():
    _, _, _, _, cpu, table = make_machine()
    with pytest.raises(ConfigError):
        run(cpu, table, [CallPal("ghost")])


def test_run_budget_enforced():
    from repro.errors import ReproError

    _, _, _, _, cpu, table = make_machine()
    thread = Thread(pid=1, page_table=table, program=assemble([
        Label("spin"), Jump("spin")]))
    with pytest.raises(ReproError):
        cpu.run(thread, max_instructions=100)


def test_thread_restart():
    _, _, _, _, cpu, table = make_machine()
    thread, _ = run(cpu, table, [Mov("t0", 1)])
    assert thread.halted
    thread.restart()
    assert not thread.halted
    assert thread.pc == 0


def test_instruction_counters():
    _, _, _, _, cpu, table = make_machine()
    before = cpu.stats.counter("instructions").value
    run(cpu, table, [Mov("t0", 1), Nop()])
    assert cpu.stats.counter("instructions").value == before + 3  # + Halt
