"""Spans around calls into the program's layers, for the traced run.

Nothing here edits the program.  :func:`instrument` wraps public entry
points of each layer (and the ``stats=``/``profiler=`` hooks the checker
already accepts) for the lifetime of one traced process; the wrappers
record spans into a :class:`Tracer` and :func:`layer_metrics` folds the
spans and counters into the per-layer metrics that ``BENCHMARK.json``
lists under ``per_layer``.

A span is one call: name, start, end, the span that was open when it
began (its parent) and the request or scenario it served.  A span's
self time is its duration minus the durations of its child spans.
Every traced call in this program runs synchronously inside one
event-loop step, so a plain stack gives each span its parent; the tracer
refuses a close out of stack order rather than attribute time wrongly.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Per-layer metrics, in report order: (name, unit).  ``BENCHMARK.json``
#: lists exactly these under ``per_layer``.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("service.shard.register.calls", "count"),
    ("service.shard.register.s", "s"),
    ("service.shard.execute.calls", "count"),
    ("service.shard.execute.s", "s"),
    ("service.shard.execute.self_s", "s"),
    ("service.shard.execute.p50_us", "us"),
    ("service.shard.execute.p99_us", "us"),
    ("core.api.dma_reliable.calls", "count"),
    ("core.api.dma_reliable.s", "s"),
    ("core.api.dma_reliable.attempts", "count"),
    ("core.atomics.atomic_add.calls", "count"),
    ("core.atomics.atomic_add.s", "s"),
    ("msg.channel.send.calls", "count"),
    ("msg.channel.send.s", "s"),
    ("msg.channel.recv.calls", "count"),
    ("msg.channel.recv.s", "s"),
    ("hw.cpu.instructions", "count"),
    ("hw.cpu.host_ns_per_instruction", "ns"),
    ("os.kernel.syscalls", "count"),
    ("sim.engine.events", "count"),
    ("faults.injected", "count"),
    ("faults.injector.s", "s"),
    ("core.api.retries", "count"),
    ("core.api.kernel_fallbacks", "count"),
    ("core.api.completion_timeouts", "count"),
    ("service.admission.admit.calls", "count"),
    ("service.admission.admit.s", "s"),
    ("service.admission.admitted_ratio", "ratio"),
    ("service.frontend.submit.self_s", "s"),
    ("service.telemetry.record.calls", "count"),
    ("service.telemetry.record.s", "s"),
    ("service.telemetry.close_window.calls", "count"),
    ("service.telemetry.close_window.s", "s"),
    ("obs.slo.observe.s", "s"),
    ("obs.flightrec.note.s", "s"),
    ("obs.flightrec.bundles", "count"),
    ("service.requests.from_dict.s", "s"),
    ("service.requests.to_dict.s", "s"),
    ("service.frontend.handle_connection.self_s", "s"),
    ("verify.incremental.check.calls", "count"),
    ("verify.incremental.check.s", "s"),
    ("verify.incremental.check.orders", "count"),
    ("verify.incremental.deliver.calls", "count"),
    ("verify.incremental.deliver.s", "s"),
    ("verify.incremental.restore.calls", "count"),
    ("verify.incremental.restore.s", "s"),
    ("verify.incremental.snapshot.calls", "count"),
    ("verify.incremental.snapshot.s", "s"),
    ("verify.incremental.leaf.calls", "count"),
    ("verify.incremental.leaf.s", "s"),
    ("verify.incremental.accesses_delivered", "count"),
    ("verify.incremental.naive_accesses", "count"),
    ("verify.incremental.delivery_ratio", "ratio"),
    ("verify.incremental.transposition_hits", "count"),
    ("verify.incremental.transposition_hit_ratio", "ratio"),
    ("verify.incremental.batched_deliveries", "count"),
    ("sim.journal.entries_replayed", "count"),
    ("hw.memory.dirty_pages", "count"),
    ("verify.model_check.make_harness.calls", "count"),
    ("verify.model_check.make_harness.s", "s"),
    ("verify.synth.kfault.apply_fault_combo.calls", "count"),
    ("verify.synth.kfault.apply_fault_combo.s", "s"),
    ("verify.synth.search.self_s", "s"),
    ("verify.synth.search.duplicates", "count"),
    ("verify.synth.search.useful_ratio", "ratio"),
    ("verify.synth.generator.random_stream.calls", "count"),
    ("verify.synth.generator.random_stream.s", "s"),
    ("verify.synth.shrink.calls", "count"),
    ("verify.synth.shrink.s", "s"),
    ("trace.overhead_ops_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
)

#: Phases the ``profiler=`` hook of check_scenario_incremental times,
#: reported as ``verify.incremental.<phase>.{calls,s}``.
_CHECKER_PHASES = ("deliver", "restore", "snapshot", "leaf")


class Tracer:
    """In-memory spans plus counters taken at the same boundaries."""

    def __init__(self) -> None:
        #: Finished spans: (id, name, start, end, parent id, request,
        #: self seconds).  Kept in memory; :meth:`write` dumps them.
        self.spans: List[Tuple[int, str, float, float, Optional[int],
                               Any, float]] = []
        self.counts: Dict[str, float] = {}
        #: Receives the checker's ``profiler=`` phase timings.
        self.checker_profiler: Any = None
        self._stack: List[List[Any]] = []
        self._next_id = 0

    def open(self, name: str, request: Any = None) -> List[Any]:
        """Begin a span; a request of None inherits the parent's."""
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = parent[5]
        self._next_id += 1
        frame = [self._next_id, name, time.perf_counter(), 0.0,
                 parent[0] if parent is not None else None, request]
        self._stack.append(frame)
        return frame

    def close(self, frame: List[Any], keep: bool = True) -> None:
        """End a span (``keep=False`` drops it without charging it to
        the parent, for calls that turned out not to be the layer's
        work)."""
        end = time.perf_counter()
        if not self._stack or self._stack[-1] is not frame:
            raise RuntimeError(f"span {frame[1]!r} closed out of order")
        self._stack.pop()
        if not keep:
            return
        duration = end - frame[2]
        if self._stack:
            self._stack[-1][3] += duration
        self.spans.append((frame[0], frame[1], frame[2], end, frame[4],
                           frame[5], duration - frame[3]))

    def count(self, name: str, n: float = 1) -> None:
        """Add *n* to counter *name*."""
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, func: Callable[..., Any],
             request: Optional[Callable[..., Any]] = None,
             after: Optional[Callable[[Any], None]] = None
             ) -> Callable[..., Any]:
        """A synchronous wrapper recording one *name* span per call.

        *request* maps the call's arguments to the span's request id;
        *after* sees the return value (to take counts at the boundary).
        """
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = self.open(name, request(*args, **kwargs)
                              if request is not None else None)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(frame)
            if after is not None:
                after(result)
            return result

        return traced

    def steps(self, name: str, coro: Any) -> "_StepTimed":
        """Await *coro* with one *name* span per event-loop step."""
        return _StepTimed(self, name, coro)

    def write(self, path: str) -> None:
        """Dump every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(["id", "name", "start_s", "end_s",
                                     "parent", "request", "self_s"]) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span, default=str) + "\n")


class _StepTimed:
    """Drive a coroutine, recording one span per event-loop step.

    ``handle_connection`` lives as long as its connection and waits on
    the socket between requests; its own work is what runs between
    those waits, so each step (from resume to the next suspension) is a
    span and the parse/submit/serialize calls inside it are children.
    """

    def __init__(self, tracer: Tracer, name: str, coro: Any) -> None:
        self._tracer = tracer
        self._name = name
        self._coro = coro

    def __await__(self) -> "_StepTimed":
        return self

    def __iter__(self) -> "_StepTimed":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        frame = self._tracer.open(self._name)
        try:
            return self._coro.send(value)
        finally:
            self._tracer.close(frame)

    def throw(self, *exc: Any) -> Any:
        frame = self._tracer.open(self._name)
        try:
            return self._coro.throw(*exc)
        finally:
            self._tracer.close(frame)

    def close(self) -> None:
        self._coro.close()


def instrument(tracer: Tracer) -> None:
    """Wrap every traced layer entry point for the rest of the process."""
    import repro.verify.faulted as faulted
    import repro.verify.incremental as incremental
    import repro.verify.model_check as model_check
    import repro.verify.synth.kfault as kfault
    import repro.verify.synth.search as search
    from repro.core.api import DmaChannel
    from repro.core.atomics import AtomicChannel
    from repro.core.machine import Workstation
    from repro.faults.injector import Injector
    from repro.msg.channel import MessageChannel
    from repro.obs.flightrec import FlightRecorder
    from repro.obs.profile import PhaseProfiler
    from repro.obs.slo import SloEngine
    from repro.service.admission import AdmissionController
    from repro.service.frontend import DmaService
    from repro.service.requests import Completion, Request
    from repro.service.shard import ServiceShard
    from repro.service.telemetry import FleetTelemetry

    def method(cls: Any, attr: str, name: str, **kwargs: Any) -> None:
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), **kwargs))

    # -- service ----------------------------------------------------------
    tenant = ServiceShard.tenant

    def first_sight(shard: Any, name: str) -> Any:
        before = shard.n_tenants
        frame = tracer.open("service.shard.register")
        try:
            return tenant(shard, name)
        finally:
            tracer.close(frame, keep=shard.n_tenants != before)

    ServiceShard.tenant = first_sight
    method(ServiceShard, "execute", "service.shard.execute",
           request=lambda shard, request: request.req_id)
    method(Workstation, "drain", "sim.drain")
    method(DmaChannel, "dma_reliable", "core.api.dma_reliable",
           after=lambda r: tracer.count("core.api.dma_reliable.attempts",
                                        r.attempts))
    method(AtomicChannel, "atomic_add", "core.atomics.atomic_add")
    method(MessageChannel, "send", "msg.channel.send")
    method(MessageChannel, "recv", "msg.channel.recv")

    # The injector's own time excludes the device accesses it forwards:
    # the bus access it is handed and a held (reordered) store it
    # delivers are child spans.
    def interposer(func: Callable[..., Any]) -> Callable[..., Any]:
        def forward(injector: Any, bus: Any, orig: Callable[..., Any],
                    *args: Any) -> Any:
            return func(injector, bus,
                        tracer.wrap("hw.bus.device_access", orig), *args)

        return tracer.wrap("faults.injector", forward)

    for attr in ("_faulted_write", "_faulted_read"):
        setattr(Injector, attr, interposer(getattr(Injector, attr)))
    method(Injector, "_completion_hook", "faults.injector")
    flush = tracer.wrap("hw.bus.device_access", Injector._flush_held_store)

    def flush_held_store(injector: Any) -> None:
        if injector._held_store is not None:
            flush(injector)

    Injector._flush_held_store = flush_held_store
    method(AdmissionController, "admit", "service.admission.admit",
           after=lambda r: tracer.count(
               "service.admission.admitted" if r[0]
               else "service.admission.rejected"))
    method(FleetTelemetry, "record", "service.telemetry.record")
    method(FleetTelemetry, "close_window", "service.telemetry.close_window")
    method(SloEngine, "observe", "obs.slo.observe")
    method(FlightRecorder, "note", "obs.flightrec.note")
    method(FlightRecorder, "bundle", "obs.flightrec.bundle",
           after=lambda r: tracer.count("obs.flightrec.bundles"))
    method(Completion, "to_dict", "service.requests.to_dict")
    from_dict = Request.from_dict.__func__  # type: ignore[attr-defined]
    Request.from_dict = classmethod(
        tracer.wrap("service.requests.from_dict", from_dict))

    submit = DmaService.submit

    async def traced_submit(service: Any, request: Any) -> Any:
        frame = tracer.open("service.frontend.submit", request.req_id)
        try:
            return await submit(service, request)
        finally:
            tracer.close(frame)

    DmaService.submit = traced_submit

    shutdown = DmaService.shutdown

    async def harvesting_shutdown(service: Any, drain: bool = True) -> Any:
        problems = await shutdown(service, drain)
        for shard in service.shards:
            _harvest_shard(tracer, shard)
        return problems

    DmaService.shutdown = harvesting_shutdown

    # -- checker ----------------------------------------------------------
    tracer.checker_profiler = PhaseProfiler()
    check = incremental.check_scenario_incremental

    def traced_check(scenario: Any, *args: Any, stats: Any = None,
                     profiler: Any = None, **kwargs: Any) -> Any:
        stats = stats if stats is not None else incremental.CheckStats()
        frame = tracer.open("verify.incremental.check", scenario.name)
        try:
            result = check(scenario, *args, stats=stats,
                           profiler=(profiler if profiler is not None
                                     else tracer.checker_profiler),
                           **kwargs)
        finally:
            tracer.close(frame)
        _count_check(tracer, stats, result)
        return result

    for module in (incremental, search, faulted, kfault):
        module.check_scenario_incremental = traced_check

    traced_harness = tracer.wrap("verify.model_check.make_harness",
                                 model_check.make_harness)
    for module in (model_check, incremental, search):
        module.make_harness = traced_harness
    kfault.apply_fault_combo = tracer.wrap(
        "verify.synth.kfault.apply_fault_combo", kfault.apply_fault_combo)
    search.hunt_method = tracer.wrap(
        "verify.synth.search", search.hunt_method,
        request=lambda method, *a, **k: method,
        after=lambda report: (
            tracer.count("verify.synth.search.candidates",
                         report.candidates),
            tracer.count("verify.synth.search.duplicates",
                         report.duplicates)))
    search.random_stream = tracer.wrap(
        "verify.synth.generator.random_stream", search.random_stream)
    search.shrink_counterexample = tracer.wrap(
        "verify.synth.shrink", search.shrink_counterexample)


def _count_check(tracer: Tracer, stats: Any, result: Any) -> None:
    """Fold one check's CheckStats into the checker counters."""
    tracer.count("verify.incremental.check.orders",
                 result.total_interleavings)
    for field in ("accesses_delivered", "naive_accesses",
                  "transposition_hits", "transposition_entries",
                  "batched_deliveries"):
        tracer.count(f"verify.incremental.{field}", getattr(stats, field))
    tracer.count("sim.journal.entries_replayed",
                 stats.journal_entries_replayed)
    tracer.count("hw.memory.dirty_pages", stats.dirty_pages)


def _harvest_shard(tracer: Tracer, shard: Any) -> None:
    """Machine counters of a shard whose service has shut down."""
    cpu = shard.ws.cpu.stats.counters
    tracer.count("hw.cpu.instructions",
                 cpu["instructions"].value if "instructions" in cpu else 0)
    tracer.count("os.kernel.syscalls",
                 cpu["syscalls"].value if "syscalls" in cpu else 0)
    tracer.count("sim.engine.events", shard.ws.sim.events_fired)
    tracer.count("faults.injected", shard.faults_injected)
    for key, value in shard.counters().items():
        tracer.count(f"core.api.{key}", value)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Every per-layer metric except the tracing overhead (0 for a
    layer the workload never reached)."""
    calls: Dict[str, int] = {}
    seconds: Dict[str, float] = {}
    self_s: Dict[str, float] = {}
    execute_us: List[float] = []
    for _, name, start, end, _, _, own in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
        seconds[name] = seconds.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + own
        if name == "service.shard.execute":
            execute_us.append((end - start) * 1e6)
    profiler = tracer.checker_profiler
    if profiler is not None:
        for phase in _CHECKER_PHASES:
            calls[f"verify.incremental.{phase}"] = profiler.counts.get(
                phase, 0)
            seconds[f"verify.incremental.{phase}"] = profiler.seconds.get(
                phase, 0.0)
    counts = tracer.counts
    out: Dict[str, float] = {}
    for name, unit in LAYER_METRICS:
        base, _, leaf = name.rpartition(".")
        if leaf == "calls":
            out[name] = calls.get(base, 0)
        elif leaf == "s":
            out[name] = seconds.get(base, 0.0)
        elif leaf == "self_s":
            out[name] = self_s.get(base, 0.0)
        else:
            out[name] = counts.get(name, 0)
    if len(execute_us) > 1:
        out["service.shard.execute.p50_us"] = statistics.median(execute_us)
        out["service.shard.execute.p99_us"] = statistics.quantiles(
            execute_us, n=100)[98]
    # The injector's own work, without the device accesses it forwards.
    out["faults.injector.s"] = self_s.get("faults.injector", 0.0)
    out["hw.cpu.host_ns_per_instruction"] = _ratio(
        out["service.shard.execute.s"] * 1e9, out["hw.cpu.instructions"])
    out["service.admission.admitted_ratio"] = _ratio(
        counts.get("service.admission.admitted", 0),
        out["service.admission.admit.calls"])
    out["verify.incremental.delivery_ratio"] = _ratio(
        out["verify.incremental.accesses_delivered"],
        out["verify.incremental.naive_accesses"])
    hits = out["verify.incremental.transposition_hits"]
    out["verify.incremental.transposition_hit_ratio"] = _ratio(
        hits, hits + counts.get("verify.incremental.transposition_entries",
                                0))
    candidates = counts.get("verify.synth.search.candidates", 0)
    out["verify.synth.search.useful_ratio"] = _ratio(
        candidates, candidates + out["verify.synth.search.duplicates"])
    return out
