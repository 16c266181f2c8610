"""The user-facing DMA API.

A :class:`DmaChannel` is what an application links against: given a
process with a DMA binding, it builds the *exact* user-level instruction
sequence of the bound method (Figs. 1-4 and 7, verbatim), runs it, and
reports the outcome and its simulated latency.  The sequences are plain
:mod:`repro.hw.isa` programs, so tests and benchmarks can also inspect,
count, or schedule them adversarially.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..errors import ConfigError, KernelError
from ..faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from ..hw.cpu import StepStatus, Thread
from ..hw.dma.status import STATUS_FAILURE, STATUS_PENDING, is_rejection
from ..hw.dma.transfer import Transfer
from ..hw.isa import (
    Addr,
    Beq,
    Bne,
    CallPal,
    CompareExchange,
    Halt,
    Instruction,
    Label,
    Load,
    Mb,
    Mov,
    Program,
    Store,
    Syscall,
    assemble,
)
from ..hw.dma.protocols.keyed import (
    ARG_DESTINATION,
    ARG_SOURCE,
    pack_key_word,
)
from ..os.process import SHADOW_VOFFSET, Process
from ..units import Time, to_us
from .machine import PAL_DMA_FUNCTION, Workstation


@dataclass(frozen=True)
class InitiationResult:
    """Outcome of one initiation run.

    Attributes:
        status: the status word the final load/syscall returned.
        elapsed: simulated time from first instruction to program end.
        thread: the thread that ran (for register inspection).
    """

    status: int
    elapsed: Time
    thread: Thread

    @property
    def ok(self) -> bool:
        """Whether the initiation was accepted (a transfer started)."""
        return not is_rejection(self.status)

    @property
    def elapsed_us(self) -> float:
        """Elapsed time in microseconds."""
        return to_us(self.elapsed)


@dataclass(frozen=True)
class DmaResult:
    """Outcome of a full dma() call (initiation + data movement)."""

    initiation: InitiationResult
    transfer: Optional[Transfer]

    @property
    def ok(self) -> bool:
        """Whether the data actually moved."""
        return (self.initiation.ok and self.transfer is not None
                and self.transfer.completed)


@dataclass(frozen=True)
class ReliableResult:
    """Outcome of a hardened (retry + fallback) DMA operation.

    Attributes:
        initiation: the final attempt's initiation result.
        attempts: total initiation attempts (including the final one
            and, when ``fell_back``, the kernel-path attempt).
        fell_back: whether the operation degraded to the kernel syscall
            path after exhausting user-level retries (§3.2's escape
            hatch).
        transfer: the completed transfer when one was tracked
            (:meth:`DmaChannel.dma_reliable`), else None.
        recovery_time: simulated time from the first attempt to the
            final outcome — the recovery latency a fault cost us.
    """

    initiation: InitiationResult
    attempts: int
    fell_back: bool
    transfer: Optional[Transfer] = None
    recovery_time: Time = 0

    @property
    def ok(self) -> bool:
        """Whether the operation ultimately succeeded."""
        if not self.initiation.ok:
            return False
        return self.transfer is None or self.transfer.completed

    @property
    def recovered(self) -> bool:
        """Succeeded, but only after at least one retry or the fallback."""
        return self.ok and (self.attempts > 1 or self.fell_back)


class DmaChannel:
    """A process's handle for issuing DMA operations.

    Args:
        ws: the workstation.
        proc: the issuing process.
        via: ``"user"`` (default) issues through the machine's user-level
            method and requires a matching DMA binding; ``"kernel"``
            forces the Fig. 1 syscall path, which works on *any* machine
            — this is the §3.2 fallback for processes that could not get
            a register context ("the rest will have to go through the
            kernel").
    """

    def __init__(self, ws: Workstation, proc: Process,
                 via: str = "user") -> None:
        if via not in ("user", "kernel"):
            raise ConfigError(f"via must be 'user' or 'kernel', not {via!r}")
        self.ws = ws
        self.proc = proc
        self.via = via
        # Jitter RNG, seeded at the channel's first backoff: a channel
        # that never backs off never builds one.
        self._retry_rng = None
        if via == "kernel":
            from .methods import get_method

            self.method = get_method("kernel")
        else:
            self.method = ws.method
            if self.method.name != "kernel":
                binding = proc.dma_binding
                if binding.method != self.method.name:
                    raise ConfigError(
                        f"{proc.name} is bound to {binding.method!r} but "
                        f"the machine runs {self.method.name!r}")
        #: The method's sequence builder, looked up once (a plain
        #: function: a bound method would reach the channel from itself).
        self._build = _SEQUENCE_BUILDERS.get(self.method.name,
                                             DmaChannel._no_sequence)

    # ------------------------------------------------------------------
    # sequence construction (the code from the paper's figures)
    # ------------------------------------------------------------------

    def sequence(self, vsrc: int, vdst: int, size: int,
                 with_retry: bool = True,
                 with_mb: bool = True) -> List[Instruction]:
        """Build the initiation instruction sequence (no Halt).

        Args:
            with_retry: include Fig. 7's DMA_FAILURE retry loop where the
                method has one.
            with_mb: include the memory barriers footnote 6 calls for in
                the repeated-passing method.  Disabling them on a machine
                with a relaxed write buffer reproduces the failure the
                footnote warns about.
        """
        return self._build(self, vsrc, vdst, size, with_retry, with_mb)

    def program(self, vsrc: int, vdst: int, size: int,
                with_retry: bool = True, with_mb: bool = True,
                name: str = "") -> Program:
        """The sequence assembled into a runnable program (ends in Halt)."""
        instructions = self._build(self, vsrc, vdst, size, with_retry,
                                   with_mb)
        instructions.append(_HALT)
        return assemble(instructions,
                        name=name or f"dma-{self.method.name}")

    def _kernel_sequence(self, vsrc: int, vdst: int, size: int,
                         with_retry: bool,
                         with_mb: bool) -> List[Instruction]:
        """Fig. 1: the arguments in registers, then the ``dma`` syscall."""
        return [Mov("a0", vsrc), Mov("a1", vdst), Mov("a2", size),
                _SYSCALL_DMA]

    def _shrimp1_sequence(self, vsrc: int, vdst: int, size: int,
                          with_retry: bool,
                          with_mb: bool) -> List[Instruction]:
        """§2.4: one atomic exchange on the source's shadow."""
        return [CompareExchange("v0", _shadow(vsrc), size)]

    def _shadow_pair_sequence(self, vsrc: int, vdst: int, size: int,
                              with_retry: bool,
                              with_mb: bool) -> List[Instruction]:
        """The two-access store/load sequence (SHRIMP-2, FLASH, extended
        shadow).  For the iommu methods the shadow mappings encode the
        buffer's virtual address, so the same two instructions present
        IOVAs the engine translates."""
        return [Store(_shadow(vdst), size), Load("v0", _shadow(vsrc))]

    def _pal_sequence(self, vsrc: int, vdst: int, size: int,
                      with_retry: bool,
                      with_mb: bool) -> List[Instruction]:
        """§2.7: the arguments in registers, then the PAL call."""
        return [Mov("a0", vsrc), Mov("a1", vdst), Mov("a2", size),
                _CALL_PAL_DMA]

    def _no_sequence(self, vsrc: int, vdst: int, size: int,
                     with_retry: bool, with_mb: bool) -> List[Instruction]:
        raise ConfigError(
            f"no sequence builder for method {self.method.name!r}")

    def _keyed_sequence(self, vsrc: int, vdst: int, size: int,
                        with_retry: bool,
                        with_mb: bool) -> List[Instruction]:
        """Fig. 3: two keyed shadow stores, a size store, a status load."""
        binding = self.proc.dma_binding
        if binding.key is None or binding.ctx_id is None:
            raise KernelError(
                f"{self.proc.name} has no key/context for keyed DMA")
        ctx_page = Addr(None, binding.ctx_page_vaddr)
        return [
            Store(_shadow(vdst),
                  pack_key_word(binding.key, binding.ctx_id,
                                ARG_DESTINATION)),
            Store(_shadow(vsrc),
                  pack_key_word(binding.key, binding.ctx_id, ARG_SOURCE)),
            Store(ctx_page, size),
            Load("v0", ctx_page),
        ]

    def _capio_sequence(self, vsrc: int, vdst: int, size: int,
                        with_retry: bool,
                        with_mb: bool) -> List[Instruction]:
        """Two capability-token stores, a size store, a status load.

        The store address is ``window + offset`` (the byte offset into
        the capability's buffer); the data word is the packed token
        built from the kernel-issued descriptor.
        """
        binding = self.proc.dma_binding
        if binding.capio_window_vaddr is None or binding.ctx_id is None:
            raise KernelError(
                f"{self.proc.name} has no capio window/context")
        ctx_page = Addr(None, binding.ctx_page_vaddr)
        # The two token stores can target the SAME window address (equal
        # buffer offsets), and the write buffer collapses same-address
        # posted stores (footnote 6) — a barrier keeps both visible.
        return [
            self._capio_store(binding, vdst, ARG_DESTINATION),
            _MB,
            self._capio_store(binding, vsrc, ARG_SOURCE),
            Store(ctx_page, size),
            Load("v0", ctx_page),
        ]

    def _capio_store(self, binding, vaddr: int, arg: int) -> Instruction:
        """One argument-passing store: token word at window + offset."""
        from ..hw.dma.protocols.capio import pack_cap_word

        descriptor = binding.capability_for(vaddr)
        if descriptor is None:
            raise KernelError(
                f"{self.proc.name} holds no capability covering "
                f"{vaddr:#x}")
        offset = vaddr - descriptor.vaddr
        token = pack_cap_word(descriptor.cap_id, descriptor.epoch,
                              descriptor.nonce, arg)
        return Store(Addr(None, binding.capio_window_vaddr + offset),
                     token)

    def _repeated_sequence(self, vsrc: int, vdst: int, size: int,
                           with_retry: bool,
                           with_mb: bool) -> List[Instruction]:
        """Figs. 5-7: the 3-, 4-, and 5-access repeated-passing code."""
        length = int(self.method.name[-1])
        shadow_src = _shadow(vsrc)
        shadow_dst = _shadow(vdst)
        seq: List[Instruction] = []

        def store_dst() -> None:
            seq.append(Store(shadow_dst, size))
            if with_mb:
                seq.append(_MB)

        def load_src(reg: str) -> None:
            seq.append(Load(reg, shadow_src))
            if with_retry:
                seq.append(Beq(reg, STATUS_FAILURE, "retry"))

        if with_retry:
            seq.append(Label("retry"))
        if length == 3:
            load_src("t0")
            store_dst()
            seq.append(Load("v0", shadow_src))
        elif length == 4:
            store_dst()
            load_src("t0")
            store_dst()
            seq.append(Load("v0", shadow_src))
        else:
            store_dst()
            load_src("t0")
            store_dst()
            load_src("t1")
            seq.append(Load("v0", shadow_dst))
        if with_retry:
            seq.append(Beq("v0", STATUS_FAILURE, "retry"))
            # The final load must also distinguish the mid-sequence
            # PENDING word, or an adversary could fabricate a phantom
            # success (see repro.hw.dma.status).
            seq.append(Beq("v0", STATUS_PENDING, "retry"))
        return seq

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def initiate(self, vsrc: int, vdst: int, size: int,
                 with_retry: bool = False,
                 with_mb: bool = True) -> InitiationResult:
        """Run one initiation to completion (unpreempted) and time it.

        ``with_retry`` defaults to False here: an uncontended initiation
        never needs Fig. 7's loop, and Table 1 measures the straight-line
        path.
        """
        program = self.program(vsrc, vdst, size, with_retry=with_retry,
                               with_mb=with_mb)
        thread = self.proc.new_thread(program)
        ws = self.ws
        sp = None
        if ws.spans.enabled:
            sp = ws.spans.begin("dma.initiate",
                                track=f"proc{self.proc.pid}",
                                method=self.method.name, pid=self.proc.pid,
                                via=self.via, size=size)
        start = ws.sim.now
        status = ws.cpu.run(thread)
        elapsed = ws.sim.now - start
        if status is StepStatus.FAULTED:
            result = InitiationResult(STATUS_FAILURE, elapsed, thread)
        else:
            result = InitiationResult(int(thread.reg("v0")), elapsed, thread)
        if sp is not None:
            ws.spans.end(
                sp, outcome="completed" if result.ok else "aborted",
                status=result.status)
        if ws.metrics.enabled:
            ws.metrics.poll()
        return result

    def polling_program(self, vsrc: int, vdst: int, size: int) -> Program:
        """Initiation followed by a §3.1 completion-polling loop.

        "A read operation from a register context returns the number of
        bytes that need to be transferred yet (-1 means failure, 0 means
        completed DMA operation)" — the returned program starts the DMA
        and then spins on the context page until the readout reaches 0,
        leaving the final status in ``v0``.  Only available for methods
        with a mapped register context (keyed, extshadow).

        Raises:
            ConfigError: for methods without a context page.
        """
        binding = self.proc.dma_binding
        if binding.ctx_page_vaddr is None:
            raise ConfigError(
                f"method {self.method.name!r} has no register-context "
                f"page to poll")
        ctx_page = Addr(None, binding.ctx_page_vaddr)
        instructions = self.sequence(vsrc, vdst, size)
        instructions += [
            Label("poll"),
            Load("v0", ctx_page),
            Beq("v0", STATUS_FAILURE, "done"),
            Bne("v0", 0, "poll"),
            Label("done"),
            _HALT,
        ]
        return assemble(instructions,
                        name=f"dma-poll-{self.method.name}")

    def dma_and_poll(self, vsrc: int, vdst: int, size: int) -> InitiationResult:
        """Run an initiation plus the polling loop to completion.

        The CPU spends the whole transfer duration spinning on the
        status register (as a simple application would); the result's
        elapsed time therefore covers initiation *and* data movement.
        """
        program = self.polling_program(vsrc, vdst, size)
        thread = self.proc.new_thread(program)
        start = self.ws.sim.now
        status = self.ws.run_thread(thread,
                                    max_instructions=5_000_000)
        elapsed = self.ws.sim.now - start
        if status is StepStatus.FAULTED:
            return InitiationResult(STATUS_FAILURE, elapsed, thread)
        return InitiationResult(int(thread.reg("v0")), elapsed, thread)

    def dma(self, vsrc: int, vdst: int, size: int,
            wait: bool = True) -> DmaResult:
        """Initiate a transfer and (by default) wait for the data to land."""
        ws = self.ws
        sp = None
        if ws.spans.enabled:
            sp = ws.spans.begin("dma", track=f"proc{self.proc.pid}",
                                method=self.method.name, pid=self.proc.pid,
                                size=size)
        before = len(ws.engine.transfer_engine.history)
        initiation = self.initiate(vsrc, vdst, size)
        transfer: Optional[Transfer] = None
        history = ws.engine.transfer_engine.history
        if initiation.ok and len(history) > before:
            transfer = history[-1]
            if wait:
                ws.sim.wait_for(lambda: transfer.completed)
        result = DmaResult(initiation=initiation, transfer=transfer)
        if sp is not None:
            ws.spans.end(
                sp, outcome="completed" if result.ok else "aborted")
        if ws.metrics.enabled:
            ws.metrics.poll()
        return result

    # ------------------------------------------------------------------
    # hardened execution (retry + backoff + kernel fallback)
    # ------------------------------------------------------------------

    def initiate_reliable(self, vsrc: int, vdst: int, size: int,
                          policy: Optional[RetryPolicy] = None
                          ) -> ReliableResult:
        """Initiation hardened against transient faults.

        Retries a rejected initiation up to ``policy.max_attempts``
        times with exponential, jittered backoff (simulated-time waits),
        then degrades to the kernel syscall path.  All activity is
        counted in ``ws.stats`` (``dma.retries``, ``dma.recoveries``,
        ``dma.retry_exhausted``, ``dma.kernel_fallbacks``) and recorded
        as ``dma.reliable`` / ``dma.backoff`` / ``dma.fallback`` spans.
        """
        return self._reliable(vsrc, vdst, size, policy, wait=False)

    def dma_reliable(self, vsrc: int, vdst: int, size: int,
                     policy: Optional[RetryPolicy] = None) -> ReliableResult:
        """A full DMA hardened end to end.

        Like :meth:`dma`, but every wait is bounded: a transfer whose
        completion never fires (a dropped completion event) is declared
        lost after ``policy.completion_timeout`` and the whole operation
        is retried — the §3.3 repeated-DMA idempotence makes re-copying
        safe.  After user-level retry exhaustion the operation degrades
        to the kernel path.
        """
        return self._reliable(vsrc, vdst, size, policy, wait=True)

    def _reliable(self, vsrc: int, vdst: int, size: int,
                  policy: Optional[RetryPolicy], wait: bool
                  ) -> ReliableResult:
        """The one retry loop behind both hardened entry points.

        An attempt succeeds when its initiation is accepted or, with
        *wait*, when its transfer completes within the policy's timeout.
        """
        policy = policy if policy is not None else DEFAULT_RETRY_POLICY
        ws = self.ws
        counts = ws.counts
        root = None
        if ws.spans.enabled:
            root = ws.spans.begin("dma.reliable",
                                  track=f"proc{self.proc.pid}",
                                  method=self.method.name,
                                  pid=self.proc.pid, via=self.via,
                                  size=size)
        # Whether ending the operation has a span to close or a sample
        # to poll: with both off, the end costs nothing.
        observed = root is not None or ws.metrics.enabled
        start = ws.sim.now
        for attempt in range(1, policy.max_attempts + 1):
            initiation, transfer = self._try_once(self, vsrc, vdst, size,
                                                  policy, wait)
            if _succeeded(initiation, transfer, wait):
                if observed:
                    self._end_reliable_span(
                        root, "completed" if attempt == 1 else "retried",
                        attempt)
                return self._reliable_success(initiation, attempt, False,
                                              transfer, start)
            if transfer is not None:
                counts["dma.completion_timeouts"].value += 1
            counts["dma.retries"].value += 1
            if attempt < policy.max_attempts:
                self._backoff(policy, attempt)
        counts["dma.retry_exhausted"].value += 1
        if policy.kernel_fallback and self.via == "user":
            fb = None
            if ws.spans.enabled:
                fb = ws.spans.begin("dma.fallback",
                                    track=f"proc{self.proc.pid}",
                                    pid=self.proc.pid)
            initiation, transfer = self._try_once(
                self._kernel_channel(), vsrc, vdst, size, policy, wait)
            if fb is not None:
                ws.spans.end(fb, ok=initiation.ok)
            counts["dma.kernel_fallbacks"].value += 1
            attempts = policy.max_attempts + 1
            if observed:
                self._end_reliable_span(root, "fell-back", attempts)
            if _succeeded(initiation, transfer, wait):
                return self._reliable_success(initiation, attempts, True,
                                              transfer, start)
            return ReliableResult(initiation, attempts, True,
                                  transfer=transfer,
                                  recovery_time=ws.sim.now - start)
        if observed:
            self._end_reliable_span(root, "aborted", policy.max_attempts)
        return ReliableResult(initiation, policy.max_attempts, False,
                              recovery_time=ws.sim.now - start)

    @staticmethod
    def _try_once(channel: "DmaChannel", vsrc: int, vdst: int, size: int,
                  policy: RetryPolicy, wait: bool):
        """One bounded attempt: initiate, then (with *wait*) wait for the
        transfer until the policy's completion timeout."""
        ws = channel.ws
        history = ws.nic.transfer_engine.history
        before = len(history)
        initiation = channel.initiate(vsrc, vdst, size)
        if (not wait or is_rejection(initiation.status)
                or len(history) <= before):
            return initiation, None
        transfer = history[-1]
        wsp = None
        if ws.spans.enabled:
            wsp = ws.spans.begin("dma.wait",
                                 track=f"proc{channel.proc.pid}")
        ws.sim.wait_for(lambda: transfer.completed,
                        timeout=policy.completion_timeout)
        if wsp is not None:
            ws.spans.end(wsp, completed=transfer.completed)
        return initiation, transfer

    # -- helpers for the hardened paths ----------------------------------------

    def _end_reliable_span(self, root, outcome: str, attempts: int) -> None:
        if root is not None:
            self.ws.spans.end(root, outcome=outcome, attempts=attempts)
        if self.ws.metrics.enabled:
            self.ws.metrics.poll()

    def _backoff(self, policy: RetryPolicy, attempt: int) -> None:
        """Wait out the backoff for *attempt*, as a span when tracing."""
        delay = policy.backoff(attempt, self._jitter_rng(policy))
        if self.ws.spans.enabled:
            sp = self.ws.spans.begin("dma.backoff",
                                     track=f"proc{self.proc.pid}",
                                     attempt=attempt)
            self.ws.sim.advance(delay)
            self.ws.spans.end(sp)
        else:
            self.ws.sim.advance(delay)

    def _reliable_success(self, initiation: InitiationResult, attempts: int,
                          fell_back: bool, transfer: Optional[Transfer],
                          start: Time) -> ReliableResult:
        ws = self.ws
        elapsed = ws.sim.now - start
        ws.latencies["dma.recovery"].record(elapsed)
        if attempts > 1 or fell_back:
            ws.counts["dma.recoveries"].value += 1
        return ReliableResult(initiation, attempts, fell_back,
                              transfer=transfer, recovery_time=elapsed)

    def _kernel_channel(self) -> "DmaChannel":
        return DmaChannel(self.ws, self.proc, via="kernel")

    def _jitter_rng(self, policy: RetryPolicy):
        if self._retry_rng is None:
            self._retry_rng = policy.make_rng(
                self.ws.config.seed * 1_000_003 + self.proc.pid)
        return self._retry_rng


def _succeeded(initiation: InitiationResult,
               transfer: Optional[Transfer], wait: bool) -> bool:
    """Whether one attempt of a hardened operation succeeded."""
    if wait:
        return transfer is not None and transfer.completed
    return not is_rejection(initiation.status)


def _shadow(vaddr: int) -> Addr:
    """The shadow virtual address of *vaddr*, as an absolute operand."""
    return Addr(None, vaddr + SHADOW_VOFFSET)


# Operand-free instructions are immutable, so every program shares one.
_HALT = Halt()
_MB = Mb()
_SYSCALL_DMA = Syscall("dma")
_CALL_PAL_DMA = CallPal(PAL_DMA_FUNCTION)

#: Each method's sequence builder (the code from the paper's figures).
_SEQUENCE_BUILDERS = {
    "kernel": DmaChannel._kernel_sequence,
    "shrimp1": DmaChannel._shrimp1_sequence,
    "shrimp2": DmaChannel._shadow_pair_sequence,
    "flash": DmaChannel._shadow_pair_sequence,
    "extshadow": DmaChannel._shadow_pair_sequence,
    "iommu": DmaChannel._shadow_pair_sequence,
    "iommu_noshootdown": DmaChannel._shadow_pair_sequence,
    "pal": DmaChannel._pal_sequence,
    "keyed": DmaChannel._keyed_sequence,
    "capio": DmaChannel._capio_sequence,
    "capio_noepoch": DmaChannel._capio_sequence,
    "repeated3": DmaChannel._repeated_sequence,
    "repeated4": DmaChannel._repeated_sequence,
    "repeated5": DmaChannel._repeated_sequence,
}


def open_channel(ws: Workstation, proc: Process) -> DmaChannel:
    """Open the best available DMA channel for *proc*.

    Tries to grant a user-level binding (if the process lacks one) and
    falls back to the kernel syscall path when the machine's method
    cannot serve this process — typically because every register context
    is taken (§3.2: "If more processes would like to start DMA
    operations, the rest will have to go through the kernel").

    Returns:
        A user-level channel when possible, else a kernel channel.
    """
    from ..errors import KernelError

    if ws.method.name == "kernel":
        return DmaChannel(ws, proc, via="kernel")
    if proc.dma is None:
        try:
            ws.kernel.enable_user_dma(proc)
        except KernelError:
            return DmaChannel(ws, proc, via="kernel")
    return DmaChannel(ws, proc, via="user")
