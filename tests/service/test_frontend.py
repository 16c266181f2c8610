"""The asyncio front end: routing, admission, shutdown, TCP serving."""

import asyncio
import json
import socket
import struct

import pytest

from repro.errors import ConfigError
from repro.hw.dma.transfer import Transfer
from repro.obs.context import TraceContext
from repro.service.admission import (
    REASON_BACKPRESSURE,
    REASON_SHARD_FULL,
    REASON_SHUTDOWN,
)
from repro.service.frontend import (
    DmaService,
    ServiceConfig,
    handle_connection,
    serve_forever,
    shard_of,
)
from repro.service.requests import OUTCOME_REJECTED, Completion, Request


def run(coro):
    return asyncio.run(coro)


def small_config(**overrides):
    defaults = dict(shards=2, seed=3, telemetry_window_ticks=2)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def test_shard_of_is_stable_and_in_range():
    assert shard_of("alice", 4) == shard_of("alice", 4)
    assert 0 <= shard_of("alice", 4) < 4
    spread = {shard_of(f"t{i}", 4) for i in range(64)}
    assert spread == {0, 1, 2, 3}


def test_submit_completes_requests():
    async def scenario():
        service = DmaService(small_config())
        await service.start()
        futures = [await service.submit(
            Request(tenant=f"t{i}", size=512, req_id=i))
            for i in range(6)]
        await service.shutdown(drain=True)
        return [f.result() for f in futures]

    completions = run(scenario())
    assert all(c.ok for c in completions)
    assert {c.shard for c in completions} <= {0, 1}


def test_submit_before_start_raises():
    async def scenario():
        service = DmaService(small_config())
        with pytest.raises(ConfigError):
            await service.submit(Request(tenant="a"))

    run(scenario())


def test_route_respects_shard_override_and_validates():
    async def scenario():
        service = DmaService(small_config())
        assert service.route(Request(tenant="a", shard=1)) == 1
        with pytest.raises(ConfigError):
            service.route(Request(tenant="a", shard=9))

    run(scenario())


def test_backpressure_rejects_when_queue_is_deep():
    async def scenario():
        service = DmaService(small_config(
            shards=1, max_queue_depth=2,
            admission_rate=1000.0, admission_burst=1000.0))
        await service.start()
        # Submissions within one tick pile up before the worker runs.
        futures = [await service.submit(
            Request(tenant=f"t{i}", size=256, req_id=i))
            for i in range(5)]
        await service.shutdown(drain=True)
        return [f.result() for f in futures]

    completions = run(scenario())
    rejected = [c for c in completions if c.outcome == OUTCOME_REJECTED]
    assert len(rejected) == 3
    assert all(c.reason == REASON_BACKPRESSURE for c in rejected)
    assert all(not c.ok for c in rejected)


def test_throttled_tenant_is_shed_but_queue_still_served():
    async def scenario():
        service = DmaService(small_config(
            shards=1, admission_rate=1.0, admission_burst=2.0))
        await service.start()
        futures = [await service.submit(
            Request(tenant="hog", size=256, req_id=i))
            for i in range(4)]
        await service.shutdown(drain=True)
        return [f.result() for f in futures]

    completions = run(scenario())
    outcomes = [c.outcome for c in completions]
    assert outcomes.count(OUTCOME_REJECTED) == 2
    assert sum(1 for c in completions if c.ok) == 2


def test_graceful_shutdown_drains_in_flight_requests():
    async def scenario():
        service = DmaService(small_config(shards=2))
        await service.start()
        futures = [await service.submit(
            Request(tenant=f"t{i}", size=1024, req_id=i))
            for i in range(20)]
        # No tick ever advanced: everything is still queued when the
        # shutdown begins.  Draining must complete all of it.
        problems = await service.shutdown(drain=True)
        return futures, problems

    futures, problems = run(scenario())
    assert problems == []
    assert all(f.done() for f in futures)
    assert all(f.result().ok for f in futures)


def test_shutdown_rejects_new_submissions():
    async def scenario():
        service = DmaService(small_config())
        await service.start()
        await service.shutdown(drain=True)
        future = await service.submit(Request(tenant="late"))
        return future.result()

    completion = run(scenario())
    assert completion.outcome == OUTCOME_REJECTED
    assert completion.reason == REASON_SHUTDOWN


def test_ticks_close_trend_windows():
    async def scenario():
        service = DmaService(small_config(shards=1,
                                          telemetry_window_ticks=2))
        await service.start()
        for i in range(4):
            await service.submit(Request(tenant="a", size=512, req_id=i))
            await service.advance_tick()
        await service.shutdown(drain=True)
        return service

    service = run(scenario())
    assert len(service.telemetry.history.points) >= 2
    assert service.telemetry.completed > 0
    snapshot = service.snapshot()
    assert snapshot["goodput_mbytes_per_s"] > 0
    assert snapshot["telemetry"]["latency_us"]["p99"] > 0


def test_fault_plan_is_derived_per_shard():
    plan = {"seed": 5, "rules": [{"kind": "drop", "target": "completion",
                                  "probability": 0.5}]}

    async def scenario():
        service = DmaService(small_config(shards=2, fault_plan=plan))
        await service.start()
        for i in range(10):
            await service.submit(
                Request(tenant=f"t{i}", size=512, req_id=i))
        await service.shutdown(drain=True)
        return service

    service = run(scenario())
    counters = service.fleet_counters()
    assert counters["faults"] > 0
    # Distinct per-shard streams: seeds differ.
    seeds = {shard.index for shard in service.shards
             if shard.faults_injected >= 0}
    assert seeds == {0, 1}


#: Well-formed JSON objects the service must refuse without dropping the
#: connection: mistyped tenants and traces, and out-of-range shards.
HOSTILE_REQUESTS = (
    {"tenant": 5},
    {"tenant": ["x"]},
    {"tenant": "a", "shard": 999},
    {"tenant": "a", "shard": -1},
    {"tenant": "a", "trace": 5},
    {"tenant": "a", "trace": {"x": 1}},
    {"tenant": "a", "size": 10**12},
    {"tenant": "a", "size": 2**70},
    {"tenant": "x" * 50_000},
)


def test_tcp_roundtrip_and_stats():
    async def scenario():
        ready = asyncio.Event()
        server = asyncio.get_running_loop().create_task(serve_forever(
            small_config(shards=1), ready=ready, max_connections=1))
        await ready.wait()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", ready.port)
        lines = [
            {"tenant": "alice", "kind": "dma", "size": 512},
            {"op": "stats"},
            "not json at all",
            {"tenant": "bob", "bogus_field": 1},
            ["tenant"],
            {"tenant": "carol", "size": 256},
        ]
        for hostile in HOSTILE_REQUESTS:
            lines += [hostile, {"tenant": "dave", "size": 128}]
        responses = []
        for line in lines:
            raw = (line if isinstance(line, str)
                   else json.dumps(line))
            writer.write(raw.encode() + b"\n")
            await writer.drain()
            responses.append(json.loads(await reader.readline()))
        writer.close()
        await server
        return responses

    responses = run(scenario())
    dma, stats, bad_json, bad_field, not_object, after = responses[:6]
    assert dma["ok"] is True
    assert dma["tenant"] == "alice"
    assert dma["bytes_moved"] == 512
    assert stats["telemetry"]["completed"] == 1
    assert "error" in bad_json
    assert "bogus_field" in bad_field["error"]
    assert not_object == {"error": "a request must be a JSON object"}
    assert after["ok"] is True  # the connection survived the array
    assert after["tenant"] == "carol"
    # Each hostile line gets one error reply; the valid request sent
    # next on the same connection still completes.
    for hostile, reply, following in zip(HOSTILE_REQUESTS,
                                         responses[6::2], responses[7::2]):
        assert set(reply) == {"error"}, hostile
        assert following["ok"] is True and following["tenant"] == "dave"


@pytest.mark.parametrize("length", [70_000, 300_000],
                         ids=["newline-in-overrun", "newline-after"])
def test_tcp_over_long_line_gets_an_error_and_the_connection_lives(length):
    """A line over the reader's 64 KiB limit gets one typed error reply,
    whether its newline came with the overrun or after it; the valid
    request sent next on the same connection completes, and the
    connection counts as served."""
    async def scenario():
        ready = asyncio.Event()
        server = asyncio.get_running_loop().create_task(serve_forever(
            small_config(shards=1), ready=ready, max_connections=1))
        await ready.wait()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", ready.port)
        writer.write(json.dumps({"tenant": "x" * length}).encode() + b"\n")
        writer.write(json.dumps({"tenant": "alice", "size": 512}).encode()
                     + b"\n")
        await writer.drain()
        replies = [json.loads(await reader.readline()) for _ in range(2)]
        writer.close()
        await asyncio.wait_for(server, timeout=10)
        return replies

    too_long, after = run(scenario())
    assert too_long == {"error": "request line too long"}
    assert after["ok"] is True and after["tenant"] == "alice"


def test_tcp_peer_reset_is_counted_as_served():
    """A client that resets its connection mid-request ends it quietly:
    the server counts it and stops at ``max_connections``."""
    async def scenario():
        ready = asyncio.Event()
        server = asyncio.get_running_loop().create_task(serve_forever(
            small_config(shards=1), ready=ready, max_connections=1))
        await ready.wait()
        _, writer = await asyncio.open_connection("127.0.0.1", ready.port)
        writer.write(json.dumps({"tenant": "alice"}).encode() + b"\n")
        await writer.drain()
        # Linger 0: closing sends a reset instead of a FIN.
        writer.get_extra_info("socket").setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        writer.transport.abort()
        await asyncio.wait_for(server, timeout=10)

    run(scenario())


def test_reset_during_drain_ends_the_connection_quietly():
    class ResetWriter:
        closed = False

        def write(self, data):
            pass

        async def drain(self):
            raise ConnectionResetError("peer reset")

        def close(self):
            self.closed = True

    async def scenario():
        service = DmaService(small_config(shards=1))
        await service.start()
        futures = []
        submit = service.submit

        async def recording_submit(request):
            futures.append(await submit(request))
            return futures[-1]

        service.submit = recording_submit
        reader = asyncio.StreamReader()
        reader.feed_data(b'{"tenant": "alice"}\n{"tenant": "bob"}\n')
        reader.feed_eof()
        writer = ResetWriter()
        await handle_connection(service, reader, writer)
        await service.shutdown()
        return futures, writer

    futures, writer = run(scenario())
    assert writer.closed
    assert [f.result().request.tenant for f in futures] == ["alice"]


def test_full_shard_rejects_with_a_reason_and_keeps_serving():
    """1,100 distinct tenants aimed at one shard: all complete, the
    77 past its capacity as typed rejections that reach telemetry."""
    async def scenario():
        service = DmaService(small_config())
        await service.start()
        completions = []
        for i in range(1100):
            future = await service.submit(Request(
                tenant=f"t{i:04d}", size=512, shard=0,
                req_id=service.next_req_id()))
            completions.append(await future)
        again = await (await service.submit(Request(
            tenant="t0000", size=512, shard=0,
            req_id=service.next_req_id())))
        problems = await service.shutdown(drain=True)
        return service, completions, again, problems

    service, completions, again, problems = run(scenario())
    assert all(c.ok for c in completions[:1023])
    assert all(c.outcome == OUTCOME_REJECTED and c.reason == REASON_SHARD_FULL
               and c.shard == 0 for c in completions[1023:])
    assert again.ok
    assert service.telemetry.completed == 1024
    assert service.telemetry.rejected == 77
    assert service.shards[0].n_tenants == 1023
    assert problems == []


def test_tcp_client_keeps_its_connection_past_a_full_shard():
    async def scenario():
        ready = asyncio.Event()
        server = asyncio.get_running_loop().create_task(serve_forever(
            small_config(shards=1), ready=ready, max_connections=1))
        await ready.wait()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", ready.port)
        lines = [{"tenant": f"t{i:04d}", "size": 512} for i in range(1100)]
        lines += [{"tenant": "t0000", "size": 512}, {"op": "stats"}]
        responses = []
        for line in lines:
            writer.write(json.dumps(line).encode() + b"\n")
            await writer.drain()
            responses.append(json.loads(await reader.readline()))
        writer.close()
        await server
        return responses

    responses = run(scenario())
    replies, again, stats = responses[:1100], responses[1100], responses[-1]
    assert all(r["ok"] for r in replies[:1023])
    assert all(r["outcome"] == OUTCOME_REJECTED
               and r["reason"] == REASON_SHARD_FULL for r in replies[1023:])
    assert again["ok"] is True
    assert stats["telemetry"]["rejected"] == 77
    assert stats["shards"][0]["tenants"] == 1023


def test_per_request_records_have_no_instance_dict():
    """A completion, its request and trace context, and a transfer are
    made for every request: each is slotted."""
    trace = TraceContext(trace_id="t1")
    request = Request(tenant="a", trace=trace)
    records = [trace, request, Completion(request=request, ok=True,
                                          outcome="completed"),
               Transfer(psrc=0, pdst=4096, size=64, started_at=0,
                        duration=1)]
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__


def test_service_config_validation():
    with pytest.raises(ConfigError):
        ServiceConfig(shards=0)
    with pytest.raises(ConfigError):
        ServiceConfig(tick_hz=0)
