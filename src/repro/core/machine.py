"""The Workstation: one fully wired simulated machine.

Builds, from a single :class:`MachineConfig`, the whole substrate the
paper's prototype ran on: CPU + MMU/TLB + write buffer, the I/O bus, the
DMA/network-interface engine running the chosen initiation protocol, the
optional atomic unit, the kernel, and (on demand) a preemptive scheduler
with or without the SHRIMP/FLASH context-switch hooks.

Typical use::

    ws = Workstation(MachineConfig(method="keyed"))
    proc = ws.kernel.spawn("app")
    ws.kernel.enable_user_dma(proc)
    src = ws.kernel.alloc_buffer(proc, 8192)
    dst = ws.kernel.alloc_buffer(proc, 8192)
    chan = DmaChannel(ws, proc)            # from repro.core.api
    result = chan.dma(src.vaddr, dst.vaddr, 4096)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import ConfigError
from ..hw.atomic_unit import AtomicShadowLayout, AtomicUnit
from ..hw.bus import Bus
from ..hw.cpu import Cpu, StepStatus, Thread
from ..hw.dma.shadow import ShadowLayout
from ..hw.isa import Addr, Load, Program, Store, assemble
from ..hw.memory import FrameAllocator, PhysicalMemory
from ..hw.mmu import Mmu
from ..hw.nic import Fabric, GlobalAddressMap, NetworkInterface
from ..hw.tlb import Tlb
from ..hw.writebuffer import WriteBuffer
from ..obs.metrics import MetricsSampler
from ..obs.spans import SpanTracer
from ..os.costs import OsCosts
from ..os.kernel import Kernel
from ..os.process import SHADOW_VOFFSET, Process
from ..os.scheduler import Scheduler, SchedulingPolicy
from ..sim.clock import Clock
from ..sim.engine import Simulator
from ..sim.stats import StatRegistry
from ..units import Time, mib
from .methods import get_method, make_protocol
from .timing import ALPHA3000_TURBOCHANNEL, MachineTiming

#: Name of the PAL call installed for the §2.7 method.
PAL_DMA_FUNCTION = "user_level_dma"


@dataclass
class MachineConfig:
    """Configuration of one workstation.

    Attributes:
        method: initiation method the engine is wired for (see
            repro.core.methods.METHODS).
        timing: timing preset.
        ram_size: bytes of physical memory (page multiple).
        n_contexts: register contexts in the DMA engine.
        seed: master seed for keys and any stochastic policy.
        relaxed_write_buffer: enable the footnote-6 write-buffer
            behaviour (load bypassing + forwarding).
        write_buffer_collapsing: allow same-address store collapsing.
        node_id: this workstation's id in the cluster address map.
        atomic_mode: build an atomic unit in this mode ("keyed" /
            "extshadow"), or None for no atomic unit.
        page_bounded: harden the engine against corrupted size words by
            rejecting user-level transfers that cross a page boundary
            (see :class:`repro.hw.dma.engine.DmaEngine`); fault-tolerant
            configurations enable this.
        spans_enabled: record every machine event as a causal span —
            DMA accesses and transfers, CPU faults, context switches,
            atomic operations, injected faults (see repro.obs.spans);
            off by default — disabled tracing costs a single branch on
            each hot path.
        metrics_interval: simulated-time cadence for the metrics sampler
            (see repro.obs.metrics), or None to disable sampling.
    """

    method: str = "keyed"
    timing: MachineTiming = field(default_factory=lambda: ALPHA3000_TURBOCHANNEL)
    ram_size: int = mib(16)
    n_contexts: int = 4
    seed: int = 42
    relaxed_write_buffer: bool = False
    write_buffer_collapsing: bool = True
    node_id: int = 0
    atomic_mode: Optional[str] = None
    page_bounded: bool = False
    spans_enabled: bool = False
    metrics_interval: Optional[Time] = None


class Workstation:
    """One simulated workstation (node) built from a config."""

    def __init__(self, config: Optional[MachineConfig] = None,
                 fabric: Optional[Fabric] = None,
                 sim: Optional[Simulator] = None) -> None:
        self.config = config if config is not None else MachineConfig()
        cfg = self.config
        self.method = get_method(cfg.method)
        timing = cfg.timing

        self.sim = sim if sim is not None else Simulator()
        #: Machine-level counters and latencies (retry/fallback activity
        #: of the reliable DMA paths lands here; see repro.core.api).
        self.stats = StatRegistry("ws")
        #: Causal span tracer shared by the API layer, the engine, the
        #: transfer engine, the CPU, the scheduler, and the atomic unit —
        #: the machine's one event recorder (one coherent span tree).
        self.spans = SpanTracer(clock=self.sim.time_source(),
                                enabled=cfg.spans_enabled,
                                max_spans=200_000)
        #: Time-series sampler over the stat registry and engine gauges;
        #: pull-based — the API layer calls ``self.metrics.poll()``.
        self.metrics = MetricsSampler(
            clock=self.sim.time_source(),
            sources=[self._stat_gauges, self._engine_gauges],
            interval=cfg.metrics_interval)
        self.cpu_clock = Clock("cpu", timing.cpu_hz)

        self.ram = PhysicalMemory(cfg.ram_size)
        self.allocator = FrameAllocator(0, cfg.ram_size)
        self.bus = Bus(self.ram, timing.bus)

        ctx_bits = max(1, (cfg.n_contexts - 1).bit_length())
        layout = ShadowLayout(n_contexts=cfg.n_contexts, ctx_bits=ctx_bits)
        protocol = make_protocol(cfg.method)
        self.nic = NetworkInterface(
            self.sim, self.ram, protocol, node_id=cfg.node_id,
            fabric=fabric, addr_map=GlobalAddressMap(), layout=layout,
            bandwidth_bps=timing.dma_bandwidth_bps,
            startup=timing.dma_startup, page_bounded=cfg.page_bounded,
            spans=self.spans)
        self.bus.attach(self.nic, layout.window_base, layout.window_size)

        self.atomic_unit: Optional[AtomicUnit] = None
        if cfg.atomic_mode is not None:
            alayout = AtomicShadowLayout()
            self.atomic_unit = AtomicUnit(
                self.sim, self.ram, layout=alayout, mode=cfg.atomic_mode,
                node_id=cfg.node_id, fabric=fabric,
                addr_map=self.nic.addr_map, spans=self.spans)
            self.bus.attach(self.atomic_unit, alayout.window_base,
                            alayout.window_size)

        self.tlb = Tlb(capacity=timing.tlb_capacity)
        self.mmu = Mmu(self.tlb,
                       walk_cost=self.cpu_clock.cycles(
                           timing.tlb_walk_cycles))
        self.write_buffer = WriteBuffer(
            capacity=timing.write_buffer_capacity,
            collapsing=cfg.write_buffer_collapsing,
            relaxed=cfg.relaxed_write_buffer)
        self.cpu = Cpu(self.sim, self.cpu_clock, self.mmu, self.bus,
                       self.write_buffer, timing.cpu_costs,
                       spans=self.spans)

        from ..os.vm import VirtualMemoryManager

        self.vmm = VirtualMemoryManager(self.allocator)
        self.kernel = Kernel(self.sim, self.cpu, self.bus, self.nic,
                             self.vmm, timing.os_costs, seed=cfg.seed,
                             atomic_unit=self.atomic_unit)
        if self.method.uses_pal:
            self._install_pal_dma()

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------

    @property
    def engine(self) -> NetworkInterface:
        """The DMA engine (alias for the NIC)."""
        return self.nic

    @property
    def os_costs(self) -> OsCosts:
        """The OS cost model in force."""
        return self.config.timing.os_costs

    @property
    def now(self) -> Time:
        """Current simulated time in ps."""
        return self.sim.now

    # ------------------------------------------------------------------
    # running code
    # ------------------------------------------------------------------

    def run_thread(self, thread: Thread,
                   max_instructions: int = 1_000_000) -> StepStatus:
        """Run *thread* alone to completion (no preemption)."""
        return self.cpu.run(thread, max_instructions=max_instructions)

    def run_program(self, proc: Process, program: Program,
                    max_instructions: int = 1_000_000) -> Thread:
        """Spawn a thread of *proc* for *program* and run it alone."""
        thread = proc.new_thread(program)
        self.run_thread(thread, max_instructions=max_instructions)
        return thread

    def make_scheduler(self, policy: SchedulingPolicy,
                       with_required_hooks: bool = True) -> Scheduler:
        """Build a scheduler; optionally install the kernel modification
        this machine's method *requires* (SHRIMP-2 / FLASH baselines).

        Passing ``with_required_hooks=False`` models running those
        baselines on an **unmodified kernel** — the failure mode the
        paper's methods exist to avoid.
        """
        scheduler = Scheduler(self.sim, self.cpu, self.os_costs, policy,
                              spans=self.spans)
        if with_required_hooks and self.method.kernel_hook is not None:
            if self.method.kernel_hook == "shrimp_abort":
                scheduler.install_hook(self.kernel.shrimp_abort_hook())
            elif self.method.kernel_hook == "flash_pid":
                scheduler.install_hook(self.kernel.flash_current_pid_hook())
            else:
                raise ConfigError(
                    f"unknown kernel hook {self.method.kernel_hook!r}")
        return scheduler

    def drain(self, timeout: Optional[Time] = None) -> None:
        """Let background activity (DMA transfers, network) complete."""
        if timeout is None:
            self.sim.run()
        else:
            self.sim.run_until(self.sim.now + timeout)

    # ------------------------------------------------------------------
    # metrics sources
    # ------------------------------------------------------------------

    def _stat_gauges(self) -> "dict[str, float]":
        """Every StatRegistry counter and latency, as sampler gauges."""
        return self.stats.snapshot()

    def _engine_gauges(self) -> "dict[str, float]":
        """Engine and simulator activity gauges for the sampler."""
        return {
            "engine.transfers_started":
                float(self.nic.transfer_engine.transfers_started),
            "engine.bytes_moved":
                float(self.nic.transfer_engine.bytes_moved),
            "engine.initiations": float(len(self.nic.initiations)),
            "engine.protocol_violations":
                float(self.nic.protocol_violations),
            "engine.remote_sends": float(self.nic.remote_sends),
            "sim.events_fired": float(self.sim.events_fired),
        }

    # ------------------------------------------------------------------

    def _install_pal_dma(self) -> None:
        """Install the §2.7 two-instruction PAL function.

        DMA(vsource=a0, vdestination=a1, size=a2):
            STORE size TO shadow(vdestination)
            LOAD  status FROM shadow(vsource)
        """
        program = assemble([
            Store(Addr("a1", SHADOW_VOFFSET), "a2"),
            Load("v0", Addr("a0", SHADOW_VOFFSET)),
        ], name=PAL_DMA_FUNCTION)
        self.cpu.install_pal_function(PAL_DMA_FUNCTION, program)
