"""The benchmark's four workloads: soak, wire, verify and hunt.

Each workload is sized by counts — service seconds, requests, k=2 fault
combinations, hunt candidates — derived from ``--seconds`` through a
fixed per-workload rate at the reference speed (see :mod:`meter`),
never by a wall-clock budget, so a seed and a length give the same
inputs and the same counts on every run.  Round *r* of a multi-round
workload runs under :func:`round_seed`, and round 0 runs under the seed
itself, so ``--seed 7`` reproduces the figures the program's own CLI
prints at seed 7.

A workload reports its finished operations to a
:class:`~meter.Meter`, which times them in chunks of at least
``chunk_ops`` operations at the reference speed; the headline
throughput is the median over rounds of each round's rate.  Checking
the outputs happens after the timed work.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import statistics
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro.verify.incremental as incremental
from repro.analysis.trends import jain_index
from repro.obs.profile import PhaseProfiler
from repro.service import frontend
from repro.service.frontend import DmaService, ServiceConfig, shard_of
from repro.service.requests import (
    KIND_ATOMIC,
    KIND_DMA,
    KIND_MESSAGE,
    OUTCOME_ABORTED,
    OUTCOME_REJECTED,
    OUTCOME_WRONG_DATA,
    Request,
)
from repro.service.soak import (
    VERDICT_UNSAFE,
    SoakConfig,
    build_schedule,
    run_soak,
)
from repro.verify.adversary import builtin_scenarios
from repro.verify.faulted import (
    FAULT_HARDENED_METHODS,
    enumerate_single_faults,
    method_fault_scenarios,
)
from repro.verify.synth import (
    HuntConfig,
    is_one_minimal,
    run_hunt,
    verify_method_under_k_faults,
)
from repro.verify.synth.search import (
    HUNT_METHODS,
    _victim_setup,
    adversary_profile_for,
    compose_scenario,
)

from meter import Meter

#: Outcomes that count as a failed request (a shed request included).
FAILED_OUTCOMES = frozenset({OUTCOME_REJECTED, OUTCOME_ABORTED,
                             OUTCOME_WRONG_DATA})

#: Seed stride between rounds of one run.
ROUND_SEED_STRIDE = 7919

GOLDEN = Path(__file__).resolve().parent / "golden" / "verify_builtin.json"

Metric = Tuple[float, str]


def round_seed(seed: int, index: int) -> int:
    """The seed of round *index* of a run under *seed*."""
    return seed + index * ROUND_SEED_STRIDE


def _digest(value: Any) -> str:
    blob = json.dumps(value, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


class Workload:
    """Shared shape: set up, run the timed work, check, summarize."""

    name = ""
    #: The headline throughput's own name (``ops_per_s`` in the JSON).
    ops_name = ""
    #: Operations per timed chunk: about a tenth of a second's worth
    #: (soak's chunk is a whole ``run_soak`` round).
    chunk_ops = 1

    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        #: The traced run's :class:`tracing.Tracer` (None when untraced).
        self.tracer: Any = None
        self.meter = Meter(self.chunk_ops)
        self.attempted = 0
        self.failed = 0

    def setup(self) -> None:
        """Work done before the first timed operation."""

    def run(self) -> None:
        """The timed work; reports operations to :attr:`meter`."""
        raise NotImplementedError

    def check(self) -> List[str]:
        """Correctness gates; each string is one failure."""
        return []

    def summary(self) -> Dict[str, Metric]:
        """Workload-specific end-to-end metrics, by their own names."""
        return {}

    def inputs(self) -> str:
        """Digest of the generated inputs (changes with the seed)."""
        return ""

    def close(self) -> None:
        """Release what :meth:`setup` opened."""


# ----------------------------------------------------------------------
# soak
# ----------------------------------------------------------------------


class Soak(Workload):
    """``repro soak --tenants 1000 --fault-rate 0.1``, round after round.

    One round is one ``run_soak`` of 20 service seconds (zipf 1.1 over a
    cold fleet, faults, retries, kernel fallback, and the fault-free
    control replay); its requests per wall-second count every generated
    request over the whole call, control replay included, as the
    committed ``BENCH_service.json`` ``wall_s`` does.
    """

    name = "soak"
    ops_name = "requests_per_s"
    SERVICE_SECONDS = 20
    #: Seconds one round takes at the reference speed.
    ROUND_REF_S = 2.35
    #: Service ticks between reference samples inside a round.
    SAMPLE_TICKS = 10

    def __init__(self, seed: int, seconds: int) -> None:
        super().__init__(seed, seconds)
        self.rounds = max(1, round(seconds / self.ROUND_REF_S))
        self.configs: List[SoakConfig] = []
        self.problems: List[str] = []
        self.per_round: List[Dict[str, float]] = []
        self.schedules: List[str] = []

    def setup(self) -> None:
        self.configs = [
            SoakConfig(tenants=1000, fault_rate=0.1,
                       duration_s=self.SERVICE_SECONDS,
                       seed=round_seed(self.seed, r))
            for r in range(self.rounds)]

    def run(self) -> None:
        # A round is one chunk; run_soak offers no hook, so the
        # reference samples inside it ride on the service tick.
        advance = DmaService.advance_tick
        ticks = itertools.count(1)
        meter = self.meter

        async def sampled_tick(service: DmaService) -> None:
            if next(ticks) % self.SAMPLE_TICKS == 0:
                meter.sample()
            await advance(service)

        DmaService.advance_tick = sampled_tick  # type: ignore[method-assign]
        try:
            for config in self.configs:
                meter.begin()
                report = run_soak(config)
                meter.add(report["requests"]["generated"])
                meter.end()
                self._account(config, report)
                del report  # free this round's fleet before the next
        finally:
            DmaService.advance_tick = advance  # type: ignore[method-assign]

    def _account(self, config: SoakConfig, report: Dict[str, Any]) -> None:
        schedule = build_schedule(config)
        offered = Counter(entry[0] for tick in schedule for entry in tick)
        completions = report["_service"].completions
        served = Counter(c.request.tenant for c in completions if c.ok)
        generated = report["requests"]["generated"]
        tag = f"seed {config.seed}"
        faults = report["faults"]
        if faults["verdict"] == VERDICT_UNSAFE:
            self.problems.append(f"{tag}: soak verdict UNSAFE")
        if report["requests"]["wrong_transfers"]:
            self.problems.append(f"{tag}: wrong-page transfers")
        if faults["sweep_problems"]:
            self.problems.append(f"{tag}: sweep found "
                                 f"{faults['sweep_problems'][:3]}")
        if (len(completions) != generated
                or len({c.request.req_id for c in completions})
                != generated):
            self.problems.append(
                f"{tag}: {len(completions)} completions for "
                f"{generated} generated requests")
        self.attempted += generated
        self.failed += sum(1 for c in completions
                           if c.outcome in FAILED_OUTCOMES)
        self.schedules.append(_digest(schedule))
        self.per_round.append({
            "sim_latency_p50_us": report["latency_us"]["p50"],
            "sim_latency_p99_us": report["latency_us"]["p99"],
            "sim_goodput_mb_s": report["goodput_mbytes_per_s"],
            "jain_served_ratio": jain_index(
                [served[t] / offered[t] for t in offered]),
        })

    def check(self) -> List[str]:
        return list(self.problems)

    def summary(self) -> Dict[str, Metric]:
        units = {"sim_latency_p50_us": "us", "sim_latency_p99_us": "us",
                 "sim_goodput_mb_s": "MB/s", "jain_served_ratio": "1"}
        return {name: (statistics.median(r[name] for r in self.per_round),
                       unit) for name, unit in units.items()}

    def inputs(self) -> str:
        return _digest(self.schedules)


# ----------------------------------------------------------------------
# wire
# ----------------------------------------------------------------------


class _Client:
    """One closed-loop JSON-lines connection."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, meter: Meter) -> None:
        self.reader = reader
        self.writer = writer
        self.meter = meter
        self.replies: List[bytes] = []

    async def send(self, lines: Sequence[bytes]) -> None:
        for line in lines:
            start = time.perf_counter()
            self.writer.write(line)
            await self.writer.drain()
            reply = await self.reader.readline()
            self.meter.note(time.perf_counter() - start)
            self.replies.append(reply)


class Wire(Workload):
    """Soak's traffic behind the TCP JSON-lines ``handle_connection``.

    The requests are soak's own schedule (``build_schedule`` of the
    1000-tenant ``SoakConfig``: zipf 1.1, the dma/atomic/message mix,
    the hot receiver, incast bursts), without faults, sized by
    ``duration_s``.  Two loopback connections carry it in a closed loop.
    Each tenant stays on the connection that owns its home shard (shards
    0-1 on one, 2-3 on the other).  Per service tick, the two
    connections first send their share of the tick's routed requests
    side by side; then the tick's incast requests, which land on a shard
    chosen by the schedule, go one at a time in schedule order.  So every
    shard and every tenant sees its requests in schedule order, and
    admission never depends on socket timing.  The workload advances
    the service tick after each tick's requests.  Set-up warms the fleet
    with one request of each kind per tenant.
    """

    name = "wire"
    ops_name = "requests_per_s"
    TENANTS = 1000
    #: Service seconds of schedule per second at the reference speed.
    SERVICE_S_PER_REF_S = 25
    chunk_ops = 500

    def __init__(self, seed: int, seconds: int) -> None:
        super().__init__(seed, seconds)
        self.config = SoakConfig(
            tenants=self.TENANTS, seed=seed,
            duration_s=max(1, round(seconds * self.SERVICE_S_PER_REF_S)))
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.service: Optional[DmaService] = None
        self.server: Optional[asyncio.AbstractServer] = None
        #: Per tick: (per connection, its routed request lines;
        #: the incast requests as (connection, line)).
        self.ticks: List[Tuple[List[List[bytes]],
                               List[Tuple[int, bytes]]]] = []
        self.clients: List[_Client] = []
        self.handlers: List["asyncio.Task[None]"] = []
        self.problems: List[str] = []

    def _connection(self, tenant: str) -> int:
        return shard_of(tenant, self.config.shards) * 2 // self.config.shards

    def setup(self) -> None:
        for entries in build_schedule(self.config):
            routed: List[List[bytes]] = [[], []]
            incast: List[Tuple[int, bytes]] = []
            for tenant, kind, size, hot, shard in entries:
                request = {"tenant": tenant, "kind": kind, "size": size,
                           "hot": hot}
                if shard is not None:
                    request["shard"] = shard
                line = json.dumps(request).encode("utf-8") + b"\n"
                if shard is None:
                    routed[self._connection(tenant)].append(line)
                else:
                    incast.append((self._connection(tenant), line))
            self.ticks.append((routed, incast))
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._start())

    async def _start(self) -> None:
        config = self.config
        self.service = DmaService(ServiceConfig(
            shards=config.shards, method=config.method, seed=config.seed,
            atomics=True, tick_hz=config.tick_hz,
            admission_rate=config.admission_rate,
            admission_burst=config.admission_burst,
            max_queue_depth=config.max_queue_depth))
        await self.service.start()
        for i in range(self.TENANTS):
            for kind, hot in ((KIND_DMA, True), (KIND_ATOMIC, False),
                              (KIND_MESSAGE, False)):
                future = await self.service.submit(Request(
                    tenant=f"t{i:04d}", kind=kind, hot=hot,
                    tick=self.service.tick,
                    req_id=self.service.next_req_id()))
                if not (await future).ok:
                    self.problems.append(f"warm-up {kind} for t{i:04d} "
                                         "did not complete")
        # One service second refills the buckets the warm-up drew on.
        for _ in range(config.tick_hz):
            await self.service.advance_tick()

        async def serve(reader: asyncio.StreamReader,
                        writer: asyncio.StreamWriter) -> None:
            self.handlers.append(asyncio.current_task())
            handler = frontend.handle_connection(self.service, reader,
                                                 writer)
            if self.tracer is not None:
                handler = self.tracer.steps(
                    "service.frontend.handle_connection", handler)
            await handler

        self.server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = self.server.sockets[0].getsockname()[1]
        for _ in range(2):
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           port)
            self.clients.append(_Client(reader, writer, self.meter))

    def run(self) -> None:
        self.loop.run_until_complete(self._drive())

    async def _drive(self) -> None:
        self.meter.begin()
        for routed, incast in self.ticks:
            await asyncio.gather(*(client.send(lines) for client, lines
                                   in zip(self.clients, routed)))
            for connection, line in incast:
                await self.clients[connection].send([line])
            await self.service.advance_tick()
            sent = sum(map(len, routed)) + len(incast)
            self.meter.add(sent)
            self.attempted += sent
        self.meter.end()

    def close(self) -> None:
        if self.loop is None:
            return
        self.loop.run_until_complete(self._stop())
        self.loop.close()
        self.loop = None

    async def _stop(self) -> None:
        for client in self.clients:
            client.writer.close()
            await client.writer.wait_closed()
        self.server.close()
        await self.server.wait_closed()
        await asyncio.gather(*self.handlers)
        sweep = await self.service.shutdown(drain=True)
        if sweep:
            self.problems.append(f"shutdown sweep found {sweep[:3]}")

    def check(self) -> List[str]:
        problems = []
        replies = [reply for client in self.clients
                   for reply in client.replies]
        if len(replies) != self.attempted:
            problems.append(f"{len(replies)} replies for {self.attempted} "
                            "requests")
        for reply in replies:
            try:
                data = json.loads(reply)
            except ValueError:
                problems.append(f"unparseable reply {reply[:80]!r}")
                continue
            if not isinstance(data, dict) or "outcome" not in data:
                problems.append(f"reply without an outcome: {reply[:80]!r}")
            elif data["outcome"] in FAILED_OUTCOMES:
                self.failed += 1
        return self.problems + problems

    def summary(self) -> Dict[str, Metric]:
        """Round-trip times at the reference speed: each scaled by the
        machine speed of the chunk it fell in, as throughput is."""
        rtt = [s * 1e6 for s in self.meter.scaled_notes()]
        return {"rtt_p50_us": (statistics.median(rtt), "us"),
                "rtt_p99_us": (statistics.quantiles(rtt, n=100)[98], "us")}

    def inputs(self) -> str:
        return _digest([[[line.decode("utf-8") for line in lines]
                         for lines in routed]
                        + [[connection, line.decode("utf-8")]
                           for connection, line in incast]
                        for routed, incast in self.ticks])


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


class Verify(Workload):
    """The built-in suite once, then a seeded k=2 fault-campaign sample.

    Every check goes through ``check_scenario_incremental`` — the
    campaign's ``checker=`` hook hands it in — and reports its orders
    to the meter.  Each hardened method's sample is drawn from its own
    exhaustive k=2 space and stays below it, so no scenario repeats and
    a new seed draws a new sample.
    """

    name = "verify"
    ops_name = "orders_per_s"
    K = 2
    #: Share of each method's k=2 space drawn per second at the reference
    #: speed.  The campaign's sampler draws with replacement, so even
    #: the largest sample (one below the space) covers about 63 % of it:
    #: a run stops growing near five reference seconds.
    SAMPLE_PER_REF_S = 0.2
    chunk_ops = 10_000

    def __init__(self, seed: int, seconds: int) -> None:
        super().__init__(seed, seconds)
        self.fraction = min(1.0, seconds * self.SAMPLE_PER_REF_S)
        self.limits: Dict[str, int] = {}
        self.labels: List[str] = []
        self.builtin: List[Dict[str, Any]] = []
        self.reports: Dict[str, Any] = {}

    def setup(self) -> None:
        self.scenarios = builtin_scenarios()
        self.golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        for method in FAULT_HARDENED_METHODS:
            race = method_fault_scenarios(method)[0]
            n = len(enumerate_single_faults(race))
            space = n * (n - 1) // 2
            self.limits[method] = max(1, min(space - 1,
                                             round(space * self.fraction)))

    def _check(self, scenario: Any, **kwargs: Any) -> Any:
        result = incremental.check_scenario_incremental(scenario, **kwargs)
        self.meter.add(result.total_interleavings)
        return result

    def run(self) -> None:
        self.meter.begin()
        for scenario in self.scenarios:
            result = self._check(scenario)
            self.builtin.append({
                "scenario": scenario.name, "method": scenario.method,
                "interleavings": result.total_interleavings,
                "violating": result.violating_interleavings,
                "safe": result.safe})
        for method in FAULT_HARDENED_METHODS:
            self.reports[method] = verify_method_under_k_faults(
                method, k=self.K, max_combos=self.limits[method],
                seed=self.seed, checker=self._check,
                progress=lambda label, done, total:
                    self.labels.append(label))
        self.meter.end()
        self.attempted = self.meter.operations

    def check(self) -> List[str]:
        golden = self.golden["scenarios"]
        # Positional: two built-in scenarios share a name.
        problems = [f"built-in {want['scenario']}: the naive oracle gives "
                    f"{want}, the incremental checker {have}"
                    for want, have in zip(golden, self.builtin)
                    if want != have]
        if len(self.builtin) != len(golden):
            problems.append(f"{len(self.builtin)} built-in scenarios, the "
                            f"golden file has {len(golden)}")
        for method, report in self.reports.items():
            if report.verdict != "SAFE":
                problems.append(f"{method}: k=2 sample {report.summary()}")
        return problems

    def summary(self) -> Dict[str, Metric]:
        checked = sum(r.combos_checked for r in self.reports.values())
        return {"k2_combos_checked": (checked, "count")}

    def inputs(self) -> str:
        return _digest(self.labels)


# ----------------------------------------------------------------------
# hunt
# ----------------------------------------------------------------------

#: Variants the hunt must break, with the candidate each falls at when
#: the hunt runs at seed 7.
BROKEN_AT_SEED_7 = {"repeated3": 8, "repeated4": 6,
                    "iommu_noshootdown": 23, "capio_noepoch": 192}


class _CandidateClock(PhaseProfiler):
    """``run_hunt``'s ``profiler=`` hook: each checked candidate ends
    one operation."""

    def __init__(self, meter: Meter) -> None:
        super().__init__()
        self.meter = meter

    def add_seconds(self, name: str, seconds: float, n: int = 1) -> None:
        super().add_seconds(name, seconds, n)
        if name == "check":
            self.meter.add(1)


class Hunt(Workload):
    """``run_hunt`` over the ten hunt methods, round after round.

    Budgeted by ``max_candidates`` only.  The profiler hook reports each
    checked candidate, so the time of a chunk covers its candidates'
    checks and all search, probe and shrink work between them.
    """

    name = "hunt"
    ops_name = "candidates_per_s"
    MAX_CANDIDATES = 300
    #: Seconds one round takes at the reference speed.
    ROUND_REF_S = 2.6
    chunk_ops = 80

    def __init__(self, seed: int, seconds: int) -> None:
        super().__init__(seed, seconds)
        self.rounds = max(1, round(seconds / self.ROUND_REF_S))
        self.reports: List[Tuple[int, List[Any]]] = []

    def setup(self) -> None:
        self.configs = [HuntConfig(seed=round_seed(self.seed, r),
                                   max_candidates=self.MAX_CANDIDATES)
                        for r in range(self.rounds)]

    def run(self) -> None:
        clock = _CandidateClock(self.meter)
        for config in self.configs:
            self.meter.begin()
            reports = run_hunt(HUNT_METHODS, config, profiler=clock)
            self.meter.end()
            self.reports.append((config.seed, reports))
            self.attempted += sum(r.candidates for r in reports)

    def check(self) -> List[str]:
        problems = []
        for seed, reports in self.reports:
            by_method = {r.method: r for r in reports}
            for method in FAULT_HARDENED_METHODS:
                if by_method[method].found:
                    problems.append(f"seed {seed}: hardened {method} "
                                    f"broken: {by_method[method].summary()}")
            for method, at_seed_7 in BROKEN_AT_SEED_7.items():
                report = by_method[method]
                if not report.found or report.shrunk is None:
                    problems.append(f"seed {seed}: {method} not found "
                                    f"in {report.candidates} candidates")
                    continue
                # Rebuilt as the rediscovery tests rebuild it; the
                # victim's stream comes from a private helper.
                victim, keys = _victim_setup(method)
                scenario = compose_scenario(
                    method, victim, keys, adversary_profile_for(method),
                    report.adversary_stream, "gate")
                if not is_one_minimal(scenario, report.shrunk.interleaving,
                                      report.shrunk.prop):
                    problems.append(f"seed {seed}: {method} core is not "
                                    "1-minimal")
                if seed == 7 and report.candidates != at_seed_7:
                    problems.append(
                        f"seed 7: {method} found at candidate "
                        f"{report.candidates}, expected {at_seed_7}")
        return problems

    def inputs(self) -> str:
        return _digest([[(r.method, r.candidates, r.duplicates,
                          r.interleavings, r.accesses_delivered)
                         for r in reports] for _, reports in self.reports])


WORKLOADS = {w.name: w for w in (Soak, Wire, Verify, Hunt)}
