"""The asyncio front end: ``repro serve`` and the in-process service.

A :class:`DmaService` multiplexes many tenants onto a pool of
:class:`~repro.service.shard.ServiceShard` machines:

* **routing** — a tenant's requests land on ``crc32(tenant) % shards``
  (stable across runs and processes); a request may override the shard
  explicitly (incast bursts aim many tenants at one shard);
* **admission** — per-tenant token buckets plus per-shard queue-depth
  backpressure (:mod:`repro.service.admission`); shed requests complete
  immediately with ``outcome="rejected"``;
* **execution** — one worker task per shard drains that shard's queue,
  executing each request to completion in the shard's simulated time;
* **telemetry** — every completion streams into
  :class:`~repro.service.telemetry.FleetTelemetry`; the service closes
  a trend window every ``telemetry_window_ticks`` ticks;
* **graceful shutdown** — :meth:`DmaService.shutdown` stops intake,
  drains every queue, lets in-flight DMAs complete, runs the wrong-page
  sweep, and cancels the workers.

Determinism: the event loop is single-threaded, the service never
consults the wall clock, and workers execute requests in queue order —
so a scripted request schedule (the soak driver) produces an identical
completion stream on every run with the same seed.

``serve_forever`` exposes the same service over a TCP JSON-lines
socket: one request object per line in, one completion object per line
out.
"""

from __future__ import annotations

import asyncio
import json
import weakref
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from ..errors import ConfigError
from ..faults.plan import FaultPlan
from ..obs.context import TraceContext, make_trace_id
from ..obs.flightrec import REASON_SLO_BREACH, REASON_WRONG_PAGE
from ..obs.slo import SloBreach, SloEngine, load_slo_spec
from ..obs.spans import Span, SpanTracer
from ..units import Time
from .admission import REASON_SHUTDOWN, AdmissionController
from .requests import OUTCOME_REJECTED, Completion, Request
from .shard import ServiceShard, ShardConfig
from .telemetry import FleetTelemetry


@dataclass
class ServiceConfig:
    """Configuration of the front end.

    Attributes:
        shards: shard (machine) count.
        method: initiation method every shard runs.
        seed: service seed (shards derive their own).
        n_contexts: DMA register contexts per shard.
        atomics: build atomic units so "atomic" requests run natively.
        tick_hz: service ticks per second (admission time base).
        admission_rate: per-tenant sustained requests/second.
        admission_burst: per-tenant burst allowance.
        max_queue_depth: per-shard queue bound (backpressure).
        spans_enabled: record causal spans on every shard.
        metrics_interval: shard metrics cadence (simulated ps).
        telemetry_window_ticks: ticks per trend window.
        fault_plan: optional fault plan template — each shard gets its
            own deterministic copy (seed offset by shard index).
        slo: optional SLO spec (the parsed ``slo.json`` — a list of
            rule objects or ``{"slos": [...]}``); None evaluates
            :func:`~repro.obs.slo.default_slos`.
    """

    shards: int = 4
    method: str = "keyed"
    seed: int = 7
    n_contexts: int = 8
    atomics: bool = False
    tick_hz: int = 10
    admission_rate: float = 5.0
    admission_burst: float = 10.0
    max_queue_depth: int = 64
    spans_enabled: bool = False
    metrics_interval: Optional[Time] = None
    telemetry_window_ticks: int = 10
    fault_plan: Optional[Dict[str, Any]] = None
    hot_slots: int = 4
    max_message_channels: int = 16
    slo: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigError(f"shards must be >= 1, got {self.shards}")
        if self.tick_hz < 1:
            raise ConfigError(f"tick_hz must be >= 1, got {self.tick_hz}")


@dataclass
class _Job:
    """One queued request plus its completion future and open spans."""

    request: Request
    future: "asyncio.Future[Completion]" = field(repr=False, default=None)
    #: The request's frontend root span (ended at completion).
    root: Optional[Span] = field(repr=False, default=None)
    #: The queue-wait span (ended when a worker dequeues the job).
    queued: Optional[Span] = field(repr=False, default=None)


def shard_of(tenant: str, n_shards: int) -> int:
    """Stable tenant -> shard mapping (crc32, not the salted hash())."""
    return zlib.crc32(tenant.encode("utf-8")) % n_shards


def _traced(request: Request, trace: TraceContext) -> Request:
    """*request* carrying *trace*, built directly (``dataclasses.replace``
    would inspect the fields on every request)."""
    return Request(tenant=request.tenant, kind=request.kind,
                   size=request.size, hot=request.hot, shard=request.shard,
                   tick=request.tick, req_id=request.req_id, trace=trace)


class DmaService:
    """The always-on multi-tenant DMA service.

    The service keeps nothing from a request once its future has
    resolved, so its memory stays flat however long it serves.  A
    caller that wants the completions keeps the futures.
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        cfg = self.config
        self.shards: List[ServiceShard] = [
            ServiceShard(index, ShardConfig(
                method=cfg.method, seed=cfg.seed,
                n_contexts=cfg.n_contexts, atomics=cfg.atomics,
                hot_slots=cfg.hot_slots,
                max_message_channels=cfg.max_message_channels,
                spans_enabled=cfg.spans_enabled,
                metrics_interval=cfg.metrics_interval))
            for index in range(cfg.shards)]
        if cfg.fault_plan is not None:
            for shard in self.shards:
                plan = FaultPlan.from_dict(
                    cfg.fault_plan,
                    seed=int(cfg.fault_plan.get("seed", 0)) * 31
                    + shard.index)
                shard.attach_faults(plan)
        self.admission = AdmissionController(
            rate=cfg.admission_rate, burst=cfg.admission_burst,
            max_queue_depth=cfg.max_queue_depth)
        self.telemetry = FleetTelemetry(
            tick_hz=cfg.tick_hz,
            window_ticks=cfg.telemetry_window_ticks)
        #: The front end's own span tracer.  Its clock is the service
        #: tick converted to simulated picoseconds, so frontend spans
        #: (admission, queue wait) share a time axis with shard spans
        #: in the merged fleet trace.  The clock reads the service
        #: through a weak proxy, so a finished service is freed by
        #: reference counting.
        tick_ps = int(1e12) // cfg.tick_hz
        service = weakref.proxy(self)
        self.spans = SpanTracer(clock=lambda: service.tick * tick_ps,
                                enabled=cfg.spans_enabled,
                                max_spans=200_000)
        #: Burn-rate SLO evaluation, one observe() per closed window.
        self.slo = SloEngine(load_slo_spec(cfg.slo)
                             if cfg.slo is not None else None)
        self._slo_dumped: Set[str] = set()
        self._queues: List["asyncio.Queue[_Job]"] = []
        self._workers: List["asyncio.Task[None]"] = []
        self._accepting = False
        self._started = False
        self.tick = 0
        self._next_req_id = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Spawn the per-shard worker tasks and open intake."""
        if self._started:
            raise ConfigError("service already started")
        self._queues = [asyncio.Queue() for _ in self.shards]
        self._workers = [
            asyncio.get_running_loop().create_task(
                self._worker(index), name=f"shard{index}-worker")
            for index in range(len(self.shards))]
        self._accepting = True
        self._started = True

    async def _worker(self, index: int) -> None:
        """Drain shard *index*'s queue, one request at a time."""
        queue = self._queues[index]
        shard = self.shards[index]
        while True:
            # The job goes straight to _execute: a local here would keep
            # the last request and its completion alive until the next.
            self._execute(shard, await queue.get())
            queue.task_done()

    def _execute(self, shard: ServiceShard, job: _Job) -> None:
        """Run one dequeued job on *shard* and resolve its future."""
        try:
            if job.queued is not None:
                self.spans.end(job.queued)
            self._complete(job, shard.execute(job.request))
        except Exception as exc:  # pragma: no cover - defensive
            if not job.future.done():
                job.future.set_exception(exc)

    def _complete(self, job: _Job, completion: Completion) -> None:
        if job.root is not None:
            self.spans.end(job.root, outcome=completion.outcome,
                           ok=completion.ok)
        self.telemetry.record(completion)
        if not job.future.done():
            job.future.set_result(completion)

    # ------------------------------------------------------------------
    # intake
    # ------------------------------------------------------------------

    def route(self, request: Request) -> int:
        """The shard index this request executes on."""
        if request.shard is not None:
            if not 0 <= request.shard < len(self.shards):
                raise ConfigError(
                    f"shard {request.shard} out of range "
                    f"(0..{len(self.shards) - 1})")
            return request.shard
        return shard_of(request.tenant, len(self.shards))

    def _with_trace(self, request: Request) -> Request:
        """The request with a trace context (minted here if absent).

        Trace ids are a pure function of ``(service seed, req_id)``, so
        a same-seed re-run mints identical ids — postmortem bundles and
        exemplars are reproducible by construction.
        """
        if request.trace is not None:
            return request
        return _traced(request, TraceContext(
            trace_id=make_trace_id(self.config.seed, request.req_id),
            tenant=request.tenant, request_id=request.req_id))

    async def submit(self, request: Request
                     ) -> "asyncio.Future[Completion]":
        """Admit and enqueue one request.

        Returns a future resolving to the request's
        :class:`Completion`.  Shed requests (throttled, backpressure,
        or shutdown) resolve immediately with ``outcome="rejected"``.
        """
        if not self._started:
            raise ConfigError("service not started")
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Completion]" = loop.create_future()
        request = self._with_trace(request)
        shard_index = self.route(request)
        if not self._accepting:
            reason: Optional[str] = REASON_SHUTDOWN
            admitted = False
        else:
            admitted, reason = self.admission.admit(
                request.tenant, now_s=self.tick / self.config.tick_hz,
                queue_depth=self._queues[shard_index].qsize())
        job = _Job(request, future)
        trace = request.trace
        if self.spans.enabled and trace is not None:
            with self.spans.activate(trace, process="frontend"):
                job.root = self.spans.begin(
                    "request", track="frontend", stack=False,
                    kind=request.kind, shard=shard_index)
                gate = self.spans.begin(
                    "admission", track="frontend", parent=job.root,
                    stack=False, admitted=admitted,
                    **({"reason": reason} if reason else {}))
                self.spans.end(gate)
                if admitted:
                    job.queued = self.spans.begin(
                        "queue", track=f"shard{shard_index}-queue",
                        parent=job.root, stack=False,
                        depth=self._queues[shard_index].qsize())
            # The shard's spans hang off this root via the cross-process
            # parent link the context now carries.
            job.request = request = _traced(
                request, trace.child(job.root.span_id, "frontend"))
        if not admitted:
            completion = Completion(
                request=request, ok=False, outcome=OUTCOME_REJECTED,
                shard=shard_index, reason=reason)
            self._complete(job, completion)
            return future
        await self._queues[shard_index].put(job)
        return future

    def next_req_id(self) -> int:
        """A fresh request id."""
        self._next_req_id += 1
        return self._next_req_id

    # ------------------------------------------------------------------
    # the service clock
    # ------------------------------------------------------------------

    async def advance_tick(self) -> None:
        """Advance service time by one tick.

        Yields to the event loop so workers run, then closes a trend
        window when the cadence point passes.
        """
        self.tick += 1
        await asyncio.sleep(0)
        if self.tick % self.config.telemetry_window_ticks == 0:
            self._close_window()

    def _close_window(self) -> None:
        counters = self.fleet_counters()
        point = self.telemetry.close_window(
            self.tick,
            queue_depths=[q.qsize() for q in self._queues],
            retries=counters["retries"], faults=counters["faults"])
        for breach in self.slo.observe(
                point, wrong_transfers=counters["wrong_transfers"]):
            self._slo_postmortem(breach)

    def _slo_postmortem(self, breach: SloBreach) -> None:
        """Dump per-shard flight-recorder bundles for a breach.

        Only the first breach of each rule dumps (breaches of a
        sustained burn repeat every window; the evidence does not).
        """
        if breach.rule in self._slo_dumped:
            return
        self._slo_dumped.add(breach.rule)
        for shard in self.shards:
            shard.flightrec.bundle(
                REASON_SLO_BREACH, ws=shard.ws, seed=self.config.seed,
                tick=self.tick, fault_plan=shard.fault_plan_dict(),
                counters=shard.counters(),
                detail=f"{breach.rule}: {breach.detail}")

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------

    async def shutdown(self, drain: bool = True) -> List[str]:
        """Stop intake, drain in-flight work, verify, stop workers.

        Args:
            drain: process everything already queued (graceful); False
                abandons queued requests (they stay unresolved) but
                still lets the *currently executing* request finish.

        Returns:
            The wrong-page sweep's problem list (empty = clean).
        """
        self._accepting = False
        if drain and self._queues:
            await asyncio.gather(*(q.join() for q in self._queues))
        for worker in self._workers:
            worker.cancel()
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        problems: List[str] = []
        for shard in self.shards:
            shard.drain()
            shard_problems = shard.wrong_page_sweep()
            if shard_problems:
                shard.flightrec.bundle(
                    REASON_WRONG_PAGE, ws=shard.ws,
                    seed=self.config.seed, tick=self.tick,
                    offending=[{"problem": p} for p in shard_problems],
                    fault_plan=shard.fault_plan_dict(),
                    counters=shard.counters(),
                    detail=f"{len(shard_problems)} isolation "
                           f"violation(s) found by the sweep")
            problems.extend(f"shard{shard.index}: {p}"
                            for p in shard_problems)
            shard.detach_faults()
        if self.tick % self.config.telemetry_window_ticks != 0:
            self._close_window()
        else:
            # The sweep runs after the last aligned window closed; the
            # budgetless wrong-page SLO must still see its result.
            counters = self.fleet_counters()
            for breach in self.slo.observe_wrong_transfers(
                    counters["wrong_transfers"],
                    t_s=self.tick / self.config.tick_hz):
                self._slo_postmortem(breach)
        return problems

    # ------------------------------------------------------------------
    # fleet accounting
    # ------------------------------------------------------------------

    def fleet_counters(self) -> Dict[str, int]:
        """Summed per-shard retry/fault/abort counters."""
        totals = {"retries": 0, "completion_timeouts": 0,
                  "kernel_fallbacks": 0, "retry_exhausted": 0,
                  "faults": 0, "wrong_data": 0, "wrong_transfers": 0}
        for shard in self.shards:
            for key, value in shard.counters().items():
                totals[key] += value
            totals["faults"] += shard.faults_injected
            totals["wrong_data"] += shard.wrong_data
            totals["wrong_transfers"] += shard.wrong_transfers
        return totals

    def goodput_mbytes_per_s(self) -> float:
        """Fleet goodput: payload bytes over the *slowest* shard's
        simulated time — the wall-clock rate of shards running in
        parallel, so a single hot shard bounds the fleet (exactly the
        skew effect the soak measures)."""
        slowest_us = max((s.sim_elapsed_us for s in self.shards),
                        default=0.0)
        if slowest_us <= 0.0:
            return 0.0
        return self.telemetry.bytes_moved / (slowest_us / 1e6) / 1e6

    def postmortems(self) -> List[Dict[str, Any]]:
        """Every flight-recorder bundle dumped so far, shard order."""
        bundles: List[Dict[str, Any]] = []
        for shard in self.shards:
            bundles.extend(shard.flightrec.bundles)
        return bundles

    def fleet_trace(self) -> Dict[str, Any]:
        """The merged fleet Chrome trace: frontend process + every
        shard process, deterministically ordered."""
        return self.telemetry.fleet_chrome_trace(
            self.shards, frontend_spans=self.spans.finished())

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready service summary."""
        return {
            "tick": self.tick,
            "shards": [shard.snapshot() for shard in self.shards],
            "admission": self.admission.snapshot(),
            "telemetry": {
                "completed": self.telemetry.completed,
                "failed": self.telemetry.failed,
                "rejected": self.telemetry.rejected,
                "bytes_moved": self.telemetry.bytes_moved,
                "latency_us": self.telemetry.latency(),
                "fairness": self.telemetry.fairness(),
            },
            "goodput_mbytes_per_s": round(self.goodput_mbytes_per_s(), 4),
            "slo": self.slo.snapshot(),
            "postmortems": len(self.postmortems()),
        }


# ----------------------------------------------------------------------
# the TCP JSON-lines front end (`repro serve`)
# ----------------------------------------------------------------------

async def handle_connection(service: DmaService,
                            reader: "asyncio.StreamReader",
                            writer: "asyncio.StreamWriter") -> None:
    """One client connection: a request object per line, completions out.

    ``{"op": "stats"}`` returns the service snapshot instead.  A line
    that is not valid JSON, not a well-typed request, names a shard out
    of range, or is longer than the reader's limit gets an
    ``{"error": ...}`` reply, and the connection stays open for the
    next line.  A peer that resets the connection ends it quietly.
    """
    try:
        while True:
            line = await _read_line(reader)
            if line == b"":
                break
            response = (await _respond(service, line) if line is not None
                        else {"error": "request line too long"})
            writer.write(json.dumps(response).encode("utf-8") + b"\n")
            await writer.drain()
    except ConnectionError:
        pass  # the peer reset the connection: no one is left to answer
    finally:
        writer.close()


async def _read_line(reader: "asyncio.StreamReader") -> Optional[bytes]:
    """The next line; ``b""`` at end of input.

    A line longer than the reader's limit is discarded through its
    newline, a buffer at a time, and read as None: the next line is
    then the peer's next request, however the long one arrived.
    """
    overrun = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            line = exc.partial  # end of input, maybe without a newline
        except asyncio.LimitOverrunError as exc:
            overrun = True
            await reader.readexactly(exc.consumed)
            continue
        return None if overrun else line


async def _respond(service: DmaService, line: bytes) -> Dict[str, Any]:
    """The reply to one request line."""
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        return {"error": f"bad json: {exc}"}
    if isinstance(data, dict) and data.get("op") == "stats":
        return service.snapshot()
    try:
        request = Request.from_dict(data)
        future = await service.submit(Request(
            tenant=request.tenant, kind=request.kind, size=request.size,
            hot=request.hot, shard=request.shard, tick=service.tick,
            req_id=service.next_req_id(), trace=request.trace))
    except ConfigError as exc:
        return {"error": str(exc)}
    completion = await future
    return completion.to_dict()


async def serve_forever(config: Optional[ServiceConfig] = None,
                        host: str = "127.0.0.1", port: int = 0,
                        ready: Optional["asyncio.Event"] = None,
                        max_connections: Optional[int] = None,
                        tick_wall: bool = False) -> None:
    """Run the TCP front end until cancelled.

    Args:
        ready: set (with ``server.port`` stored on it as ``port``)
            once the socket is listening — tests use this to connect.
        max_connections: stop after serving this many connections
            (None = run forever).
        tick_wall: advance the service tick on a wall-clock timer —
            the interactive ``repro serve`` mode, where token buckets
            refill in real time.  Off for deterministic drivers.
    """
    service = DmaService(config)
    await service.start()
    served = 0
    done = asyncio.Event()

    async def _handler(reader: "asyncio.StreamReader",
                       writer: "asyncio.StreamWriter") -> None:
        nonlocal served
        try:
            await handle_connection(service, reader, writer)
        finally:
            served += 1
            if max_connections is not None and served >= max_connections:
                done.set()

    async def _tick_driver() -> None:
        while True:
            await asyncio.sleep(1.0 / service.config.tick_hz)
            await service.advance_tick()

    server = await asyncio.start_server(_handler, host=host, port=port)
    ticker = (asyncio.get_running_loop().create_task(_tick_driver())
              if tick_wall else None)
    if ready is not None:
        ready.port = server.sockets[0].getsockname()[1]  # type: ignore
        ready.set()
    try:
        async with server:
            if max_connections is None:
                await asyncio.Event().wait()  # run until cancelled
            else:
                await done.wait()
    finally:
        if ticker is not None:
            ticker.cancel()
        await service.shutdown(drain=True)
