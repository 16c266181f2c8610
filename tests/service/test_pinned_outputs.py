"""Every per-request output of the service, pinned.

``BENCH_service.json`` pins one soak's aggregates.  This pins what a
host-side speed-up could change without moving an aggregate:

* two further faulted soak rounds (the seeds of perfbench soak rounds 1
  and 2 at ``--seed 7``, 20 service seconds each), as a digest of the
  report's deterministic view plus every completion's ``to_dict()``;
* every reply line ``handle_connection`` writes for the first
  :data:`WIRE_REQUESTS` requests of perfbench wire's seed-7 schedule,
  sent to a service warmed exactly as wire warms it.

Regenerate the fixture (only when an output is meant to change) with::

    PYTHONPATH=src python tests/service/test_pinned_outputs.py
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import pathlib
from typing import Any, Dict, List

from repro.service.frontend import DmaService, ServiceConfig, handle_connection
from repro.service.requests import (
    KIND_ATOMIC,
    KIND_DMA,
    KIND_MESSAGE,
    Request,
)
from repro.service.soak import (
    SoakConfig,
    build_schedule,
    deterministic_view,
    run_soak,
)

FIXTURE = (pathlib.Path(__file__).resolve().parent
           / "fixtures/pinned_outputs.json")
#: perfbench soak round seeds 1 and 2 under ``--seed 7``
#: (``seed + round * 7919``).
SOAK_SEEDS = (7926, 15845)
#: Replies pinned from the head of wire's schedule.
WIRE_REQUESTS = 400


def soak_digest(seed: int) -> str:
    """Digest of one perfbench soak round's report and completions."""
    report = run_soak(SoakConfig(tenants=1000, fault_rate=0.1,
                                 duration_s=20, seed=seed))
    blob = {"view": deterministic_view(report),
            "completions": [c.to_dict()
                            for c in report["_service"].completions]}
    encoded = json.dumps(blob, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


class _Recorder:
    """A stream writer that keeps what the handler writes."""

    def __init__(self) -> None:
        self.lines: List[str] = []

    def write(self, data: bytes) -> None:
        self.lines.extend(data.decode("utf-8").splitlines())

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        pass


def wire_replies(limit: int = WIRE_REQUESTS) -> List[str]:
    """The reply lines for the first *limit* requests of wire's seed-7
    schedule, over one connection.

    Set-up is wire's: one request of each kind per tenant, then one
    service second of ticks.  Each tick then sends its routed requests
    in schedule order and its incast requests after them, the order in
    which each shard sees them in wire, and advances the tick.
    """
    config = SoakConfig(tenants=1000, seed=7, duration_s=2)

    async def scenario() -> List[str]:
        service = DmaService(ServiceConfig(
            shards=config.shards, method=config.method, seed=config.seed,
            atomics=True, tick_hz=config.tick_hz,
            admission_rate=config.admission_rate,
            admission_burst=config.admission_burst,
            max_queue_depth=config.max_queue_depth))
        await service.start()
        for i in range(config.tenants):
            for kind, hot in ((KIND_DMA, True), (KIND_ATOMIC, False),
                              (KIND_MESSAGE, False)):
                future = await service.submit(Request(
                    tenant=f"t{i:04d}", kind=kind, hot=hot,
                    tick=service.tick, req_id=service.next_req_id()))
                await future
        for _ in range(config.tick_hz):
            await service.advance_tick()
        writer = _Recorder()
        sent = 0
        for entries in build_schedule(config):
            routed: List[bytes] = []
            incast: List[bytes] = []
            for tenant, kind, size, hot, shard in entries:
                request: Dict[str, Any] = {"tenant": tenant, "kind": kind,
                                           "size": size, "hot": hot}
                if shard is not None:
                    request["shard"] = shard
                line = json.dumps(request).encode("utf-8") + b"\n"
                (routed if shard is None else incast).append(line)
            lines = (routed + incast)[:limit - sent]
            reader = asyncio.StreamReader()
            reader.feed_data(b"".join(lines))
            reader.feed_eof()
            await handle_connection(service, reader, writer)
            sent += len(lines)
            await service.advance_tick()
            if sent == limit:
                break
        await service.shutdown(drain=True)
        assert sent == limit, f"schedule holds only {sent} requests"
        return writer.lines

    return asyncio.run(scenario())


def current_outputs() -> Dict[str, Any]:
    return {"soak": {str(seed): soak_digest(seed) for seed in SOAK_SEEDS},
            "wire_replies": wire_replies()}


def test_soak_rounds_reproduce_every_completion():
    expected = json.loads(FIXTURE.read_text())["soak"]
    for seed in SOAK_SEEDS:
        assert soak_digest(seed) == expected[str(seed)], f"seed {seed}"


def test_wire_replies_are_unchanged():
    expected = json.loads(FIXTURE.read_text())["wire_replies"]
    actual = wire_replies()
    assert len(actual) == len(expected) == WIRE_REQUESTS
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, f"reply {index}"


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(current_outputs(), indent=1) + "\n")
    print(f"wrote {FIXTURE}")
