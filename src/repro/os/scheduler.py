"""The preemptive scheduler.

Interleaves threads from multiple processes on the single CPU,
preempting only *between* instructions (hardware interrupts never split
an instruction, and PAL calls/syscalls execute inside one step).  This is
the exact adversary model of the paper: a process can lose the CPU
between any two instructions of its initiation sequence.

Context switches charge the OS cost model, swap the active page table
(flushing the TLB), drain the write buffer, and then fire any installed
**hooks** — which is where the SHRIMP-2 and FLASH kernel modifications
plug in.  Running without those hooks *is* the paper's "unmodified
kernel".

Policies decide when to preempt and who runs next; the random-preemption
policy (seeded) drives the stress experiments, and the scripted policy
replays exact interleavings such as Figs. 5 and 6 at whole-machine level.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SchedulerError
from ..hw.cpu import Cpu, StepStatus, Thread
from ..obs.spans import SpanTracer
from ..sim.engine import Simulator
from ..sim.stats import StatRegistry
from .costs import OsCosts
from .kernel import SwitchHook
from .process import Process


class SchedulingPolicy(ABC):
    """Decides preemption points and the next thread to run."""

    @abstractmethod
    def should_preempt(self, thread: Thread, ran_in_quantum: int) -> bool:
        """Whether to preempt *thread* after *ran_in_quantum* instructions."""

    def choose_next(self, ready: Sequence[Thread],
                    current: Optional[Thread]) -> Thread:
        """Pick the next thread (default: round-robin after current)."""
        if not ready:
            raise SchedulerError("no ready threads")
        if current is None or current not in ready:
            return ready[0]
        index = (list(ready).index(current) + 1) % len(ready)
        return ready[index]


class RoundRobinPolicy(SchedulingPolicy):
    """Fixed instruction quantum, round-robin order."""

    def __init__(self, quantum: int = 50) -> None:
        if quantum <= 0:
            raise SchedulerError(f"quantum must be positive, got {quantum}")
        self.quantum = quantum

    def should_preempt(self, thread: Thread, ran_in_quantum: int) -> bool:
        return ran_in_quantum >= self.quantum


class RandomPreemptionPolicy(SchedulingPolicy):
    """Preempt after each instruction with probability *p* (seeded).

    This is the adversarially dense interleaving generator for the stress
    experiments: every instruction boundary is a potential switch point.
    """

    def __init__(self, p: float, rng: random.Random) -> None:
        if not 0 <= p <= 1:
            raise SchedulerError(f"probability must be in [0,1], got {p}")
        self.p = p
        self.rng = rng

    def should_preempt(self, thread: Thread, ran_in_quantum: int) -> bool:
        return self.rng.random() < self.p

    def choose_next(self, ready: Sequence[Thread],
                    current: Optional[Thread]) -> Thread:
        return self.rng.choice(list(ready))


class ScriptedPolicy(SchedulingPolicy):
    """Replay an exact interleaving, given as a list of thread indices.

    ``script[k]`` is the index (into the scheduler's thread list) of the
    thread that must execute the k-th instruction.  Used to reproduce the
    paper's Fig. 5 / Fig. 6 attack interleavings on the full machine.
    """

    def __init__(self, script: Sequence[int]) -> None:
        self.script = list(script)
        self._cursor = 0
        self._order: List[Thread] = []

    def bind(self, threads: Sequence[Thread]) -> None:
        """Associate script indices with concrete threads."""
        self._order = list(threads)

    def should_preempt(self, thread: Thread, ran_in_quantum: int) -> bool:
        return True  # re-decide after every instruction

    def choose_next(self, ready: Sequence[Thread],
                    current: Optional[Thread]) -> Thread:
        while self._cursor < len(self.script):
            wanted = self._order[self.script[self._cursor]]
            self._cursor += 1
            if wanted in ready:
                return wanted
            # Scripted thread already finished; skip its slot.
        # Script exhausted: fall back to round-robin over what is left.
        return super().choose_next(ready, current)


class Scheduler:
    """Runs threads preemptively on one CPU.

    Each context switch is recorded as an instant ``sched.switch`` span
    on *spans* (the workstation's tracer; disabled by default).
    """

    def __init__(self, sim: Simulator, cpu: Cpu, costs: OsCosts,
                 policy: SchedulingPolicy,
                 spans: Optional[SpanTracer] = None) -> None:
        self.sim = sim
        self.cpu = cpu
        self.costs = costs
        self.policy = policy
        self.spans = spans if spans is not None else SpanTracer(
            sim.time_source())
        self.stats = StatRegistry("sched")
        self.hooks: List[SwitchHook] = []
        self._threads: List[Thread] = []
        self._owner: Dict[int, Process] = {}

    # -- configuration --------------------------------------------------------

    def install_hook(self, hook: SwitchHook) -> None:
        """Install a context-switch hook (the kernel-modification model)."""
        self.hooks.append(hook)

    def add(self, proc: Process, thread: Thread) -> None:
        """Add *thread* (owned by *proc*) to the run queue."""
        if thread.pid != proc.pid:
            raise SchedulerError(
                f"thread pid {thread.pid} does not match {proc}")
        self._threads.append(thread)
        self._owner[id(thread)] = proc
        if isinstance(self.policy, ScriptedPolicy):
            self.policy.bind(self._threads)

    # -- the run loop ---------------------------------------------------------------

    def run(self, max_instructions: int = 1_000_000
            ) -> Tuple[int, List[Thread]]:
        """Run until every thread halts/faults or the budget is spent.

        Returns:
            (context switches performed, threads in completion order).
        """
        completed: List[Thread] = []
        switches = 0
        current: Optional[Thread] = None
        ran_in_quantum = 0
        budget = max_instructions
        while budget > 0:
            ready = [t for t in self._threads if not t.done]
            if not ready:
                break
            if current is None or current.done or (
                    ran_in_quantum > 0
                    and self.policy.should_preempt(current, ran_in_quantum)):
                chosen = self.policy.choose_next(ready, current)
                if chosen is not current:
                    self._context_switch(current, chosen)
                    switches += 1
                current = chosen
                ran_in_quantum = 0
            status = self.cpu.step(current)
            ran_in_quantum += 1
            budget -= 1
            if status is not StepStatus.RUNNING:
                completed.append(current)
                self.stats.counter("threads_completed").add()
        if budget <= 0 and any(not t.done for t in self._threads):
            raise SchedulerError(
                f"instruction budget {max_instructions} exhausted with "
                f"threads still runnable")
        return switches, completed

    # -- internals ------------------------------------------------------------------------

    def _context_switch(self, old: Optional[Thread], new: Thread) -> None:
        self.stats.counter("context_switches").add()
        self.sim.advance(
            self.cpu.clock.cycles(self.costs.context_switch_cycles))
        if old is not None:
            # The hardware drains posted stores while state is saved.
            self.cpu.drain_write_buffer(old)
        self.cpu.mmu.activate(new.page_table, flush=True)
        new_proc = self._owner[id(new)]
        old_proc = self._owner.get(id(old)) if old is not None else None
        for hook in self.hooks:
            hook(old_proc, new_proc)
        self.spans.instant("sched.switch", track="sched",
                           old=old_proc.pid if old_proc else None,
                           new=new_proc.pid)
