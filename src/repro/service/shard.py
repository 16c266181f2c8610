"""One service shard: a Workstation serving many tenant processes.

A :class:`ServiceShard` owns a single simulated machine seeded
deterministically from ``(service seed, shard index)``, registers tenant
processes lazily (process + pinned buffers + the best available DMA
channel — §3.2's "the rest will have to go through the kernel" applies
when register contexts run out; a new tenant its RAM cannot hold is
refused with ``shard-full`` before anything is allocated), and
executes requests **serially in simulated time**: each request runs to
completion (including bounded retry, backoff, and kernel fallback)
before the next starts, so shard state between requests is always
quiescent and content checks are exact.

Every DMA's landed bytes are verified against the source pattern, every
destination is re-armed with a tenant-specific canary afterwards, and
:meth:`wrong_page_sweep` re-checks *all* canaries at shutdown — a
transfer that strayed outside its destination page anywhere during the
soak leaves a tamper mark the sweep finds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.api import DmaChannel, open_channel
from ..core.machine import MachineConfig, Workstation
from ..errors import KernelError
from ..faults.injector import Injector
from ..faults.plan import FaultPlan
from ..faults.retry import RetryPolicy
from ..hw.memory import ramp
from ..hw.pagetable import PAGE_SIZE
from ..obs.flightrec import REASON_WRONG_DATA, FlightRecorder
from ..os.process import Process
from ..units import Time, to_us, us
from .admission import REASON_SHARD_FULL
from .requests import (
    KIND_ATOMIC,
    KIND_DMA,
    KIND_MESSAGE,
    OUTCOME_ABORTED,
    OUTCOME_COMPLETED,
    OUTCOME_FELL_BACK,
    OUTCOME_REJECTED,
    OUTCOME_RETRIED,
    OUTCOME_WRONG_DATA,
    Completion,
    Request,
)

#: Per-tenant buffer geometry: one 8 KiB page each for source and
#: destination.
TENANT_BUFFER_BYTES = 8192
#: Frames one tenant registration allocates (source + destination).
TENANT_FRAMES = 2 * TENANT_BUFFER_BYTES // PAGE_SIZE
#: Frames one message channel allocates: the receiver's ring (header +
#: slots) and credit page, the sender's staging slot + tail page and
#: credit mirror.
MESSAGE_CHANNEL_FRAMES = 6
#: Largest single transfer (one page — the page-bounded engine's limit).
MAX_TRANSFER_BYTES = 4096
#: Hot-receiver buffer: slots of one page each.
HOT_SLOT_BYTES = 4096

#: Bounded-wait policy tuned like the fault benchmark: the completion
#: timeout comfortably exceeds a one-page transfer, and backoff stays in
#: the microsecond range so a soak's simulated time is dominated by
#: useful work.
SERVICE_RETRY_POLICY = RetryPolicy(max_attempts=4, base_backoff=us(2),
                                   completion_timeout=us(500))


@dataclass
class ShardConfig:
    """Configuration of one shard.

    Attributes:
        method: initiation method of the shard's machine.
        seed: *service* seed; the shard derives its own machine and
            fault seeds from ``(seed, index)``.
        n_contexts: DMA register contexts — tenants beyond this fall
            back to kernel-initiated channels.
        atomics: build an atomic unit (keyed mode) so tenants can issue
            remote atomic requests.
        hot_slots: slots in the shared hot-receiver buffer.
        max_message_channels: ring channels built per shard before
            further message requests degrade to plain DMAs (bounds ring
            memory on huge tenant counts).
        spans_enabled: record causal spans (merged into the fleet
            Perfetto trace).
        metrics_interval: simulated cadence of the shard's sampler.
        retry_policy: hardened-path policy for every data-path DMA.
    """

    method: str = "keyed"
    seed: int = 7
    n_contexts: int = 8
    atomics: bool = False
    hot_slots: int = 4
    max_message_channels: int = 16
    spans_enabled: bool = False
    metrics_interval: Optional[Time] = None
    retry_policy: RetryPolicy = field(
        default_factory=lambda: SERVICE_RETRY_POLICY)


@dataclass
class _Tenant:
    """A registered tenant's shard-local state."""

    index: int
    proc: Process
    channel: DmaChannel
    src_vaddr: int
    src_paddr: int
    dst_vaddr: int
    dst_paddr: int
    pattern: bytes
    canary: bytes
    hot_vaddr: Optional[int] = None
    atomic_via_kernel: bool = False
    message_channel: object = None


def shard_seed(service_seed: int, index: int) -> int:
    """The deterministic machine seed of shard *index*."""
    return (service_seed * 1_000_003 + index * 7_919 + 11) & 0x7FFFFFFF


class ServiceShard:
    """One shard of the always-on service."""

    def __init__(self, index: int, config: Optional[ShardConfig] = None
                 ) -> None:
        self.index = index
        self.config = config if config is not None else ShardConfig()
        cfg = self.config
        machine = MachineConfig(
            method=cfg.method, seed=shard_seed(cfg.seed, index),
            n_contexts=cfg.n_contexts, page_bounded=True,
            atomic_mode="keyed" if cfg.atomics else None,
            spans_enabled=cfg.spans_enabled,
            metrics_interval=cfg.metrics_interval)
        self.ws = Workstation(machine)
        #: Trace-context process name — every span this shard records
        #: while executing a request is stamped with it.
        self.process = f"shard{index}"
        #: Always-on flight recorder: completion ring + postmortems.
        self.flightrec = FlightRecorder(self.process)
        self._tenants: Dict[str, _Tenant] = {}
        self._injector: Optional[Injector] = None
        self._faults_fired_detached = 0
        self._message_channels = 0
        self.requests_executed = 0
        self.bytes_moved = 0
        #: Detected in-region corruption: a fault perturbed a transfer's
        #: size/offset so the wrong bytes landed *inside* memory the
        #: tenant was authorized to write.  Detected per request,
        #: restored, and the request fails with ``outcome="wrong-data"``.
        self.wrong_data = 0
        #: Isolation violations: bytes landed in memory the issuing
        #: tenant was NOT authorized to write (another tenant's buffer,
        #: an unshared page).  The paper's protection argument says the
        #: MMU/key checks make this impossible — the sweep proves it.
        self.wrong_transfers = 0

        # The shared hot receiver: one process, one multi-slot buffer,
        # mapped into every tenant that issues hot requests.
        self._recv_proc = self.ws.kernel.spawn(f"recv{index}")
        self._recv_channel = open_channel(self.ws, self._recv_proc)
        self._hot_buffer = self.ws.kernel.alloc_buffer(
            self._recv_proc, cfg.hot_slots * HOT_SLOT_BYTES)
        self._hot_canary = self._make_canary(0xC3)
        #: The hot buffer's quiescent content (every slot canaried).
        self._hot_baseline = b"".join(
            self._hot_canary[:HOT_SLOT_BYTES]
            for _ in range(cfg.hot_slots))
        self.ws.ram.write(self._hot_buffer.paddr, self._hot_baseline)

    # ------------------------------------------------------------------
    # tenant registration
    # ------------------------------------------------------------------

    def tenant(self, name: str) -> Optional[_Tenant]:
        """The tenant's shard-local state, registering on first sight.

        None when *name* is new and the shard's RAM cannot hold its
        buffers: the check runs before anything is spawned or
        allocated, so a refused tenant leaves the shard untouched.
        """
        state = self._tenants.get(name)
        if state is None:
            if self.ws.allocator.contiguous_frames_left < TENANT_FRAMES:
                return None
            state = self._register(name)
            self._tenants[name] = state
        return state

    def _register(self, name: str) -> _Tenant:
        index = len(self._tenants)
        proc = self.ws.kernel.spawn(f"{name}@s{self.index}")
        channel = open_channel(self.ws, proc)
        atomic_via_kernel = False
        if self.config.atomics:
            try:
                self.ws.kernel.enable_user_atomics(proc)
            except KernelError:
                atomic_via_kernel = True
        src = self.ws.kernel.alloc_buffer(proc, TENANT_BUFFER_BYTES)
        dst = self.ws.kernel.alloc_buffer(proc, TENANT_BUFFER_BYTES)
        pattern = ramp(index * 31, 1, TENANT_BUFFER_BYTES)
        canary = self._make_canary(index * 17 + 0x5A)
        self.ws.ram.write(src.paddr, pattern)
        self.ws.ram.write(dst.paddr, canary)
        return _Tenant(index=index, proc=proc, channel=channel,
                       src_vaddr=src.vaddr, src_paddr=src.paddr,
                       dst_vaddr=dst.vaddr, dst_paddr=dst.paddr,
                       pattern=pattern, canary=canary,
                       atomic_via_kernel=atomic_via_kernel)

    def _make_canary(self, salt: int) -> bytes:
        return ramp(salt, 13, TENANT_BUFFER_BYTES)

    @property
    def n_tenants(self) -> int:
        """Tenants registered on this shard."""
        return len(self._tenants)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------

    def attach_faults(self, plan: FaultPlan) -> None:
        """Attach a fault injector driving *plan* (reversible)."""
        self._injector = Injector(plan, self.ws.sim).attach(self.ws)

    def detach_faults(self) -> None:
        """Detach the injector, restoring clean operation."""
        if self._injector is not None:
            self._faults_fired_detached += self._injector.plan.total_fired
            self._injector.detach()
            self._injector = None

    @property
    def faults_injected(self) -> int:
        """Faults fired on this shard so far (survives detach)."""
        live = (self._injector.plan.total_fired
                if self._injector is not None else 0)
        return self._faults_fired_detached + live

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def execute(self, request: Request) -> Completion:
        """Run one request to completion on this shard (serial).

        The request's trace context (if any) is activated on the
        shard's span tracer for the whole execution, so every span the
        data path records — initiation, retries, backoff, kernel
        fallback, fault injections — carries the request's trace id and
        hangs off one ``shard.execute`` root with a cross-process link
        back to the front end.

        A new tenant the shard has no room for is refused: the request
        completes ``rejected`` with reason ``shard-full`` and nothing
        runs.
        """
        tenant = self.tenant(request.tenant)
        if tenant is None:
            return Completion(request, ok=False, outcome=OUTCOME_REJECTED,
                              shard=self.index, reason=REASON_SHARD_FULL)
        start = self.ws.sim.now
        spans = self.ws.spans
        with spans.activate(request.trace, process=self.process):
            root = spans.begin("shard.execute", track=self.process,
                               kind=request.kind, req_id=request.req_id)
            if request.kind == KIND_DMA:
                completion = self._execute_dma(request, tenant)
            elif request.kind == KIND_ATOMIC:
                completion = self._execute_atomic(request, tenant)
            elif request.kind == KIND_MESSAGE:
                completion = self._execute_message(request, tenant)
            else:  # pragma: no cover - Request.__post_init__ rejects these
                raise KernelError(f"unknown kind {request.kind!r}")
            self.ws.drain()
            spans.end(root, outcome=completion.outcome,
                      attempts=completion.attempts)
        self.requests_executed += 1
        self.bytes_moved += completion.bytes_moved
        if self.ws.metrics.enabled:
            self.ws.metrics.poll()
        latency = to_us(self.ws.sim.now - start)
        final = Completion(
            request=request, ok=completion.ok, outcome=completion.outcome,
            latency_us=latency, attempts=completion.attempts,
            fell_back=completion.fell_back, shard=self.index,
            bytes_moved=completion.bytes_moved)
        self.flightrec.note(final)
        if final.outcome == OUTCOME_WRONG_DATA:
            self.flightrec.bundle(
                REASON_WRONG_DATA, ws=self.ws, seed=self.config.seed,
                tick=request.tick, offending=[final.to_dict()],
                fault_plan=self.fault_plan_dict(),
                counters=self.counters(),
                detail=f"request {request.req_id} landed wrong bytes "
                       f"inside its authorized region")
        return final

    def fault_plan_dict(self) -> Optional[Dict[str, object]]:
        """The active fault plan's JSON rendering, if one is attached."""
        if self._injector is None:
            return None
        return self._injector.plan.to_dict()

    def _execute_dma(self, request: Request, tenant: _Tenant) -> Completion:
        size = min(request.size, MAX_TRANSFER_BYTES)
        if request.hot:
            if tenant.hot_vaddr is None:
                tenant.hot_vaddr = self.ws.kernel.share_buffer(
                    self._recv_proc, self._hot_buffer, tenant.proc)
            slot = tenant.index % self.config.hot_slots
            dst_vaddr = tenant.hot_vaddr + slot * HOT_SLOT_BYTES
            # The whole shared hot buffer is this tenant's authorized
            # region — verify all of it, so a fault that lands bytes in
            # a *neighbouring slot* is still caught and restored.
            region_paddr = self._hot_buffer.paddr
            baseline = self._hot_baseline
            offset = slot * HOT_SLOT_BYTES
        else:
            dst_vaddr = tenant.dst_vaddr
            region_paddr = tenant.dst_paddr
            baseline = tenant.canary
            offset = 0
        result = tenant.channel.dma_reliable(
            tenant.src_vaddr, dst_vaddr, size,
            policy=self.config.retry_policy)
        # Flush delayed/duplicated completions BEFORE verifying: a
        # fault-delayed transfer may land its bytes only now, and the
        # canary must be re-armed after the last write, not before.
        self.ws.drain()
        if not result.ok:
            self.ws.ram.write(region_paddr, baseline)
            return Completion(request, ok=False, outcome=OUTCOME_ABORTED,
                              attempts=result.attempts,
                              fell_back=result.fell_back)
        # Verify the FULL authorized region, not just the requested
        # bytes: a bit-flipped size or offset word can land the wrong
        # bytes inside the region while the completion still reports
        # success (the page-bounded engine and key checks only stop it
        # escaping the region).
        landed = self.ws.ram.read(region_paddr, len(baseline))
        expected = (baseline[:offset] + tenant.pattern[:size]
                    + baseline[offset + size:])
        self.ws.ram.write(region_paddr, baseline)
        if landed != expected:
            self.wrong_data += 1
            return Completion(request, ok=False,
                              outcome=OUTCOME_WRONG_DATA,
                              attempts=result.attempts,
                              fell_back=result.fell_back)
        outcome = OUTCOME_COMPLETED
        if result.fell_back:
            outcome = OUTCOME_FELL_BACK
        elif result.attempts > 1:
            outcome = OUTCOME_RETRIED
        return Completion(request, ok=True, outcome=outcome,
                          attempts=result.attempts,
                          fell_back=result.fell_back, bytes_moved=size)

    def _execute_atomic(self, request: Request,
                        tenant: _Tenant) -> Completion:
        if not self.config.atomics:
            # No atomic unit on this shard: serve it as a small DMA so
            # mixed workloads still make progress.
            return self._execute_dma(request, tenant)
        from ..core.atomics import AtomicChannel

        channel = AtomicChannel(self.ws, tenant.proc)
        result = channel.atomic_add(tenant.dst_vaddr, 1,
                                    via_kernel=tenant.atomic_via_kernel)
        self.ws.drain()
        # Re-arm the whole canary: a fault-perturbed atomic may have
        # touched a different offset of the (authorized) page.
        self.ws.ram.write(tenant.dst_paddr, tenant.canary)
        if not result.ok:
            return Completion(request, ok=False, outcome=OUTCOME_ABORTED,
                              attempts=1)
        return Completion(request, ok=True, outcome=OUTCOME_COMPLETED,
                          attempts=1, bytes_moved=8)

    def _execute_message(self, request: Request,
                         tenant: _Tenant) -> Completion:
        channel = self._message_channel(tenant)
        if channel is None:
            return self._execute_dma(request, tenant)
        payload_len = min(request.size, channel.sender.layout.max_payload)
        payload = tenant.pattern[:payload_len]
        if not channel.send(payload):
            return Completion(request, ok=False, outcome=OUTCOME_ABORTED,
                              attempts=1)
        received = channel.recv()
        if received != payload:
            self.wrong_data += 1
            return Completion(request, ok=False,
                              outcome=OUTCOME_WRONG_DATA, attempts=1)
        return Completion(request, ok=True, outcome=OUTCOME_COMPLETED,
                          attempts=1, bytes_moved=payload_len)

    def _message_channel(self, tenant: _Tenant):
        """The tenant's ring channel to the shard receiver (lazy, capped).

        None past ``max_message_channels`` or once RAM cannot hold
        another ring; the message is then served as a plain DMA.
        """
        if tenant.message_channel is not None:
            return tenant.message_channel
        if (self._message_channels >= self.config.max_message_channels
                or self.ws.allocator.contiguous_frames_left
                < MESSAGE_CHANNEL_FRAMES):
            return None
        from ..msg.channel import MessageChannel

        channel = MessageChannel.create(
            self.ws, tenant.proc, self.ws, self._recv_proc,
            retry_policy=self.config.retry_policy)
        tenant.message_channel = channel
        self._message_channels += 1
        return channel

    # ------------------------------------------------------------------
    # verification + accounting
    # ------------------------------------------------------------------

    def wrong_page_sweep(self) -> List[str]:
        """Verify every canary and source pattern; list violations.

        Run at shutdown (and by tests): any transfer that wrote outside
        its destination — a stray page, a neighbour's buffer, the hot
        buffer's wrong slot — left a mark this sweep reports.
        """
        problems: List[str] = []
        for name, tenant in self._tenants.items():
            if self.ws.ram.read(tenant.src_paddr,
                                TENANT_BUFFER_BYTES) != tenant.pattern:
                problems.append(f"{name}: source pattern tampered")
            if self.ws.ram.read(tenant.dst_paddr,
                                TENANT_BUFFER_BYTES) != tenant.canary:
                problems.append(f"{name}: destination canary tampered")
        for slot in range(self.config.hot_slots):
            landed = self.ws.ram.read(
                self._hot_buffer.paddr + slot * HOT_SLOT_BYTES,
                HOT_SLOT_BYTES)
            if landed != self._hot_canary[:HOT_SLOT_BYTES]:
                problems.append(f"hot slot {slot}: canary tampered")
        self.wrong_transfers = max(self.wrong_transfers, len(problems))
        return problems

    def drain(self) -> None:
        """Let all background activity on this shard complete."""
        self.ws.drain()

    @property
    def sim_elapsed_us(self) -> float:
        """Simulated time this shard has consumed, in microseconds."""
        return to_us(self.ws.sim.now)

    def counters(self) -> Dict[str, int]:
        """Retry/fallback/abort counters from the machine's registry."""
        stats = self.ws.stats
        return {
            "retries": stats.counter("dma.retries").value,
            "completion_timeouts":
                stats.counter("dma.completion_timeouts").value,
            "kernel_fallbacks":
                stats.counter("dma.kernel_fallbacks").value,
            "retry_exhausted":
                stats.counter("dma.retry_exhausted").value,
        }

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready shard summary."""
        out: Dict[str, object] = {
            "shard": self.index,
            "tenants": self.n_tenants,
            "requests": self.requests_executed,
            "bytes_moved": self.bytes_moved,
            "sim_elapsed_us": round(self.sim_elapsed_us, 3),
            "wrong_data": self.wrong_data,
            "wrong_transfers": self.wrong_transfers,
            "faults_injected": self.faults_injected,
            "postmortems": len(self.flightrec.bundles),
        }
        out.update(self.counters())
        return out
