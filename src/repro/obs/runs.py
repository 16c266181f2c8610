"""Canned traced workloads for the ``repro trace`` / ``repro metrics`` CLI.

The flagship run is :func:`traced_adversary_run`: the Fig. 8 situation —
one victim issuing repeated-passing DMAs while two adversaries issue
interfering shadow stores and loads between attempts — executed on a
*real* workstation with span tracing and metrics sampling on.  The run
deliberately exercises every outcome the span model distinguishes:

* ``completed`` — ordinary victim DMAs that move their bytes;
* ``aborted``  — one oversized initiation the engine rejects;
* ``retried``  — one attempt whose first shadow store is dropped by the
  fault injector, recovered by the user-level retry path;
* ``fell-back`` — a phase where every status load is dropped, driving
  the hardened path through retry exhaustion into the kernel syscall.

Every DMA attempt therefore becomes one causal span tree — initiate →
shadow stores/loads (with recognizer state transitions) → transfer →
completion or rejection — tagged with process, protocol, and outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..core.api import DmaChannel, DmaResult, InitiationResult, ReliableResult
from ..core.machine import MachineConfig, Workstation
from ..faults.injector import Injector
from ..faults.plan import DROP, FaultPlan, FaultRule
from ..faults.retry import RetryPolicy
from ..hw.isa import Halt, Load, Store, assemble
from ..hw.memory import ramp
from ..os.process import Process, shadow_vaddr
from ..units import Time, us
from .spans import Span


@dataclass
class TracedRun:
    """Everything a traced adversary run produced.

    Attributes:
        ws: the workstation (its ``spans`` and ``metrics`` hold the
            observability data).
        completed: ordinary victim DMA results.
        aborted: the rejected oversized initiation.
        retried: the hardened result that recovered via retry.
        fell_back: the hardened result that degraded to the kernel path.
        victim / adversaries: the processes involved.
    """

    ws: Workstation
    completed: List[DmaResult] = field(default_factory=list)
    aborted: Optional[InitiationResult] = None
    retried: Optional[ReliableResult] = None
    fell_back: Optional[ReliableResult] = None
    victim: Optional[Process] = None
    adversaries: List[Process] = field(default_factory=list)

    def spans(self) -> List[Span]:
        """All spans (closed plus open), by span id."""
        return self.ws.spans.all_spans()


def _interference_program(proc: Process, vdst: int, vsrc: int,
                          index: int):
    """An adversary's shadow store + load — enough to perturb the FSM."""
    return assemble([
        Store(_shadow(vdst), 64 + index),
        Load("t0", _shadow(vsrc)),
        Halt(),
    ], name=f"adversary-{proc.name}-{index}")


def _shadow(vaddr: int):
    from ..hw.isa import Addr

    return Addr(None, shadow_vaddr(vaddr))


def traced_adversary_run(n_dmas: int = 6, method: str = "repeated5",
                         chunk: int = 256, seed: int = 11,
                         n_adversaries: int = 2,
                         metrics_interval: Time = us(2)) -> TracedRun:
    """Run the Fig. 8 two-adversary situation with full observability.

    Args:
        n_dmas: ordinary (completed) victim DMAs.
        method: victim's initiation method.
        chunk: bytes per transfer.
        seed: machine seed (keys, retry jitter).
        n_adversaries: interfering processes.
        metrics_interval: simulated sampling cadence.
    """
    ws = Workstation(MachineConfig(method=method, seed=seed,
                                   spans_enabled=True,
                                   metrics_interval=metrics_interval))
    victim = ws.kernel.spawn("victim")
    ws.kernel.enable_user_dma(victim)
    src = ws.kernel.alloc_buffer(victim, (n_dmas + 2) * chunk)
    dst = ws.kernel.alloc_buffer(victim, (n_dmas + 2) * chunk)
    ws.ram.write(src.paddr, ramp(0, 31, (n_dmas + 2) * chunk))
    chan = DmaChannel(ws, victim)

    adversaries: List[Process] = []
    adv_buffers = []
    for index in range(n_adversaries):
        adv = ws.kernel.spawn(f"adversary{index}")
        ws.kernel.enable_user_dma(adv)
        adv_src = ws.kernel.alloc_buffer(adv, chunk)
        adv_dst = ws.kernel.alloc_buffer(adv, chunk)
        adversaries.append(adv)
        adv_buffers.append((adv, adv_src, adv_dst))

    run = TracedRun(ws=ws, victim=victim, adversaries=adversaries)

    # Phase 1: ordinary DMAs with adversary interference between them.
    for i in range(n_dmas):
        for adv, adv_src, adv_dst in adv_buffers:
            ws.run_program(adv, _interference_program(
                adv, adv_dst.vaddr, adv_src.vaddr, i))
        run.completed.append(
            chan.dma(src.vaddr + i * chunk, dst.vaddr + i * chunk, chunk))

    # Phase 2: one oversized initiation the engine must reject.
    run.aborted = chan.initiate(src.vaddr, dst.vaddr,
                                ws.config.ram_size * 4)

    # Phase 3: drop exactly the first shadow store of the next attempt;
    # the hardened path recovers with one user-level retry.
    plan = FaultPlan(rules=[FaultRule(kind=DROP, target="store",
                                      nth=1, count=1)], seed=seed)
    injector = Injector(plan, ws.sim).attach(ws)
    run.retried = chan.initiate_reliable(
        src.vaddr + n_dmas * chunk, dst.vaddr + n_dmas * chunk, chunk)
    injector.detach()

    # Phase 4: drop every status load; user-level attempts exhaust and
    # the operation degrades to the (fault-immune) kernel path.
    plan = FaultPlan(rules=[FaultRule(kind=DROP, target="load",
                                      probability=1.0)], seed=seed)
    injector = Injector(plan, ws.sim).attach(ws)
    run.fell_back = chan.initiate_reliable(
        src.vaddr + (n_dmas + 1) * chunk, dst.vaddr + (n_dmas + 1) * chunk,
        chunk, policy=RetryPolicy(max_attempts=2))
    injector.detach()

    ws.drain()
    ws.metrics.poll()
    return run
