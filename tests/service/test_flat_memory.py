"""The always-on service keeps nothing per request.

Once a request is verified, its shard's machine keeps counts, not one
record per initiation, transfer or atomic operation, and the front end
keeps no completion: what the service holds follows its tenants and its
configuration, not the number of requests it has served.
"""

import asyncio
import gc
import json

from repro.core.report import machine_stats
from repro.faults.plan import bernoulli_plan
from repro.service.frontend import (
    DmaService,
    ServiceConfig,
    handle_connection,
)
from repro.service.requests import (
    KIND_ATOMIC,
    KIND_DMA,
    KIND_MESSAGE,
    Completion,
    Request,
)
from repro.service.shard import ServiceShard, ShardConfig

#: (kind, hot) of the mixed stream, in rotation.
MIX = ((KIND_DMA, False), (KIND_DMA, True), (KIND_ATOMIC, False),
       (KIND_MESSAGE, False))
TENANTS = [f"t{i}" for i in range(6)]

#: The counts each shard reported for the stream while the machine
#: still kept every record: machine_stats' record-derived counters and
#: the engine gauges.  The faulted shard rejects three initiations.
EXPECTED_COUNTS = (
    {"dma.initiations": 60.0, "dma.started": 60.0, "dma.rejected": 0.0,
     "atomic.operations": 12.0, "engine.initiations": 60.0,
     "engine.transfers_started": 60.0, "engine.bytes_moved": 52448.0},
    {"dma.initiations": 62.0, "dma.started": 59.0, "dma.rejected": 3.0,
     "atomic.operations": 10.0, "engine.initiations": 62.0,
     "engine.transfers_started": 59.0, "engine.bytes_moved": 52424.0},
)


def serve_mixed_stream():
    """Two shards, the second faulted, each serving 48 requests from six
    tenants: cold and hot DMAs, atomics and messages.  Four register
    contexts (one is the hot receiver's) leave three tenants on
    user-level channels and three on kernel channels."""
    shards = [ServiceShard(index, ShardConfig(seed=7, n_contexts=4,
                                              atomics=True))
              for index in range(2)]
    shards[1].attach_faults(bernoulli_plan(0.4, seed=7))
    for i in range(48):
        kind, hot = MIX[i % len(MIX)]
        for shard in shards:
            shard.execute(Request(tenant=TENANTS[i % len(TENANTS)],
                                  kind=kind, hot=hot,
                                  size=(256, 1024, 4096)[i % 3], req_id=i))
    return shards


def test_a_quiescent_shard_keeps_counts_not_records():
    shards = serve_mixed_stream()
    for shard in shards:
        assert {shard.tenant(name).channel.via
                for name in TENANTS} == {"user", "kernel"}
        assert any(shard.tenant(name).atomic_via_kernel
                   for name in TENANTS)
    assert shards[1].counters()["kernel_fallbacks"] > 0
    for shard, expected in zip(shards, EXPECTED_COUNTS):
        ws = shard.ws
        assert ws.engine.initiations == []
        assert ws.engine.transfer_engine.history == []
        assert ws.atomic_unit.operations == []
        counts = {**machine_stats(ws), **ws.metrics.sample_now()}
        assert {name: counts[name] for name in expected} == expected


def live(kind):
    gc.collect()
    return sum(isinstance(obj, kind) for obj in gc.get_objects())


class CollectingWriter:
    def __init__(self):
        self.lines = []

    def write(self, data):
        self.lines.append(data)

    async def drain(self):
        pass

    def close(self):
        pass


async def serve_lines(service, n):
    """Send *n* request lines through one connection; the replies."""
    reader = asyncio.StreamReader()
    for i in range(n):
        reader.feed_data(json.dumps({"tenant": f"t{i % 8}", "size": 512,
                                     "hot": i % 3 == 0}).encode() + b"\n")
    reader.feed_eof()
    writer = CollectingWriter()
    await handle_connection(service, reader, writer)
    return [json.loads(line) for line in writer.lines]


def test_the_front_end_keeps_no_completion():
    """After N requests, and after 2N, a service driven through
    handle_connection holds no Completion, even with its telemetry
    window still open: each reply is already on the wire."""
    async def scenario():
        service = DmaService(ServiceConfig(shards=2, seed=3,
                                           admission_burst=100.0))
        await service.start()
        before = live(Completion)
        held = []
        for _ in range(2):
            replies = await serve_lines(service, 200)
            assert len(replies) == 200
            assert all(reply["ok"] for reply in replies)
            await asyncio.sleep(0)  # the loop lets go of the last future
            held.append(live(Completion) - before)
        assert service.tick == 0  # no window has closed
        assert await service.shutdown() == []
        assert service.telemetry.completed == 400
        return held

    assert asyncio.run(scenario()) == [0, 0]
