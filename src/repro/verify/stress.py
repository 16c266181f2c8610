"""Whole-machine multiprogrammed stress runs.

The model checker (:mod:`repro.verify.model_check`) proves properties
over short streams; this harness complements it by running *many* DMA
initiations from several processes on the full machine — real CPU, MMU,
write buffer, preemptive scheduler with seeded random preemption — and
auditing every transfer the engine actually started.

This is the experiment behind the paper's motivation table: run SHRIMP-2
or FLASH **with** their kernel hooks and nothing corrupts; run them on an
unmodified kernel and argument mixing appears at a rate that grows with
the preemption probability.  The paper's own methods never corrupt either
way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..core.api import DmaChannel
from ..core.machine import MachineConfig, Workstation
from ..hw.dma.status import is_rejection
from ..hw.isa import Addr, Halt, Instruction, Store, assemble
from ..hw.memory import ramp
from ..os.scheduler import RandomPreemptionPolicy
from ..sim.rng import make_rng


@dataclass
class StressReport:
    """Audit of one stress run.

    Attributes:
        method: initiation method exercised.
        hooks_installed: whether the required kernel hook ran.
        attempts: initiations attempted across all processes.
        started: transfers the engine actually started.
        reported_ok: per-initiation statuses that signalled success.
        corrupted: started transfers whose (source, destination) pair was
            *not* one its issuing process ever intended — arguments from
            two processes were mixed.
        misreported: initiations whose reported status disagrees with
            whether their transfer started.
        context_switches: scheduler switches during the run.
        data_errors: destination buffers whose bytes do not match their
            source after all transfers drained (only audited for
            processes with fully successful runs).
    """

    method: str
    hooks_installed: bool
    attempts: int = 0
    started: int = 0
    reported_ok: int = 0
    corrupted: int = 0
    misreported: int = 0
    context_switches: int = 0
    data_errors: int = 0
    corrupt_pairs: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """No corruption, no misreporting, no data errors."""
        return (self.corrupted == 0 and self.misreported == 0
                and self.data_errors == 0)


def run_stress(method: str, n_processes: int = 3, dmas_each: int = 12,
               preempt_p: float = 0.25, seed: int = 7,
               with_hooks: bool = True, with_retry: bool = False,
               chunk: int = 64,
               max_instructions: int = 3_000_000) -> StressReport:
    """Run a multiprogrammed DMA stress workload and audit the engine.

    Args:
        method: any user-level initiation method.
        n_processes: concurrent processes (context methods support up to
            the engine's context count).
        dmas_each: initiations per process.
        preempt_p: per-instruction preemption probability.
        seed: drives preemption and nothing else.
        with_hooks: install the kernel hook the method requires (ablate
            with False to model the unmodified kernel).
        with_retry: build Fig. 7 retry loops into the sequences.
        chunk: bytes per transfer.
    """
    ws = Workstation(MachineConfig(method=method, seed=seed))
    rng = make_rng(seed, "stress-sched")
    scheduler = ws.make_scheduler(RandomPreemptionPolicy(preempt_p, rng),
                                  with_required_hooks=with_hooks)

    intents: Dict[int, Set[Tuple[int, int, int]]] = {}
    result_areas: List[Tuple[int, int, int]] = []  # (pid, res_paddr, n)
    buffers = []
    for index in range(n_processes):
        proc = ws.kernel.spawn(f"stress{index}")
        ws.kernel.enable_user_dma(proc)
        src = ws.kernel.alloc_buffer(proc, dmas_each * chunk)
        dst = ws.kernel.alloc_buffer(proc, dmas_each * chunk)
        res = ws.kernel.alloc_buffer(proc, max(dmas_each * 8, 8),
                                     shadow=False)
        pattern = ramp(index * 37, 1, dmas_each * chunk)
        ws.ram.write(src.paddr, pattern)
        chan = DmaChannel(ws, proc)
        instructions: List[Instruction] = []
        proc_intents: Set[Tuple[int, int, int]] = set()
        for i in range(dmas_each):
            vsrc = src.vaddr + i * chunk
            vdst = dst.vaddr + i * chunk
            instructions.extend(
                _unique_labels(chan.sequence(vsrc, vdst, chunk,
                                             with_retry=with_retry), i))
            instructions.append(Store(Addr(None, res.vaddr + i * 8), "v0"))
            proc_intents.add((ws.engine.global_address(src.paddr + i * chunk),
                              ws.engine.global_address(dst.paddr + i * chunk),
                              chunk))
        instructions.append(Halt())
        program = assemble(instructions, name=f"stress-{method}-{index}")
        thread = proc.new_thread(program)
        scheduler.add(proc, thread)
        intents[proc.pid] = proc_intents
        result_areas.append((proc.pid, res.paddr, dmas_each))
        buffers.append((proc.pid, src, dst, pattern))

    switches, _ = scheduler.run(max_instructions=max_instructions)
    ws.drain()

    report = StressReport(method=method, hooks_installed=with_hooks,
                          context_switches=switches,
                          attempts=n_processes * dmas_each)

    # Audit the engine's record of what actually ran.
    for record in ws.engine.started_transfers():
        report.started += 1
        triple = (record.psrc, record.pdst, record.size)
        owner_intents = intents.get(record.issuer, set())
        if triple not in owner_intents:
            report.corrupted += 1
            report.corrupt_pairs.append((record.psrc, record.pdst))

    # Audit the statuses each process saw, against what started.
    started_triples = {
        (r.psrc, r.pdst, r.size)
        for r in ws.engine.started_transfers()}
    for pid, res_paddr, count in result_areas:
        for i in range(count):
            status = ws.ram.read_word(res_paddr + i * 8)
            ok = not is_rejection(status)
            if ok:
                report.reported_ok += 1
            intended = _intent_of(intents[pid], i)
            if intended is None:
                continue
            started = intended in started_triples
            if ok != started:
                report.misreported += 1

    # Data audit for fully successful processes.
    for pid, src, dst, pattern in buffers:
        statuses = _statuses_of(ws, result_areas, pid)
        if statuses and all(not is_rejection(s) for s in statuses):
            if ws.ram.read(dst.paddr, len(pattern)) != pattern:
                report.data_errors += 1
    return report


def _unique_labels(instructions: List[Instruction],
                   suffix: int) -> List[Instruction]:
    """Uniquify retry labels so sequences can be concatenated."""
    from ..hw.isa import Beq, Bne, Jump, Label

    renamed: List[Instruction] = []
    for instr in instructions:
        if isinstance(instr, Label):
            renamed.append(Label(f"{instr.name}_{suffix}"))
        elif isinstance(instr, Beq):
            renamed.append(Beq(instr.a, instr.b,
                               f"{instr.target}_{suffix}"))
        elif isinstance(instr, Bne):
            renamed.append(Bne(instr.a, instr.b,
                               f"{instr.target}_{suffix}"))
        elif isinstance(instr, Jump):
            renamed.append(Jump(f"{instr.target}_{suffix}"))
        else:
            renamed.append(instr)
    return renamed


def _intent_of(proc_intents: Set[Tuple[int, int, int]],
               index: int) -> Optional[Tuple[int, int, int]]:
    """The index-th intent in source-address order (deterministic)."""
    ordered = sorted(proc_intents)
    if index >= len(ordered):
        return None
    return ordered[index]


def _statuses_of(ws: Workstation, result_areas, pid: int) -> List[int]:
    for rec_pid, res_paddr, count in result_areas:
        if rec_pid == pid:
            return [ws.ram.read_word(res_paddr + i * 8)
                    for i in range(count)]
    return []
