"""One shard: tenant registration, execution, verification, faults."""

import gc

import pytest

from repro.errors import ConfigError
from repro.faults.plan import FaultPlan, FaultRule, bernoulli_plan
from repro.hw.cpu import Thread
from repro.service.admission import REASON_SHARD_FULL
from repro.service.requests import (
    MAX_TENANT_NAME,
    MAX_TRANSFER_BYTES,
    OUTCOME_COMPLETED,
    OUTCOME_REJECTED,
    OUTCOME_WRONG_DATA,
    Completion,
    Request,
)
from repro.service.shard import (
    HOT_SLOT_BYTES,
    MESSAGE_CHANNEL_FRAMES,
    TENANT_BUFFER_BYTES,
    ServiceShard,
    ShardConfig,
    shard_seed,
)


def test_shard_seeds_are_distinct_and_stable():
    seeds = [shard_seed(7, i) for i in range(16)]
    assert len(set(seeds)) == 16
    assert seeds == [shard_seed(7, i) for i in range(16)]
    assert shard_seed(7, 0) != shard_seed(8, 0)


def test_dma_request_roundtrip():
    shard = ServiceShard(0, ShardConfig(seed=1))
    completion = shard.execute(Request(tenant="alice", size=1024))
    assert completion.ok
    assert completion.outcome == OUTCOME_COMPLETED
    assert completion.bytes_moved == 1024
    assert completion.latency_us > 0.0
    assert completion.shard == 0
    assert shard.wrong_page_sweep() == []


def test_oversized_requests_are_capped_to_one_page():
    shard = ServiceShard(0, ShardConfig(seed=1))
    completion = shard.execute(Request(tenant="alice", size=999999))
    assert completion.ok
    assert completion.bytes_moved == 4096


def test_tenants_register_lazily_and_keep_state():
    shard = ServiceShard(0, ShardConfig(seed=1))
    shard.execute(Request(tenant="a"))
    shard.execute(Request(tenant="b"))
    shard.execute(Request(tenant="a"))
    assert shard.n_tenants == 2
    assert shard.requests_executed == 3


def test_many_tenants_overflow_to_kernel_channels():
    """Register contexts run out; later tenants still get service (§3.2)."""
    shard = ServiceShard(0, ShardConfig(seed=1, n_contexts=2))
    for i in range(6):
        completion = shard.execute(Request(tenant=f"t{i}", size=512))
        assert completion.ok, completion
    assert shard.n_tenants == 6
    assert shard.wrong_page_sweep() == []


def test_hot_requests_share_the_receiver_buffer():
    shard = ServiceShard(0, ShardConfig(seed=1, hot_slots=2))
    for i in range(4):
        completion = shard.execute(
            Request(tenant=f"t{i}", size=2048, hot=True))
        assert completion.ok
    assert shard.wrong_page_sweep() == []


def test_atomic_and_message_requests():
    shard = ServiceShard(0, ShardConfig(seed=1, atomics=True))
    atomic = shard.execute(Request(tenant="a", kind="atomic"))
    assert atomic.ok and atomic.bytes_moved == 8
    message = shard.execute(Request(tenant="a", kind="message", size=512))
    assert message.ok and message.bytes_moved == 512
    assert shard.wrong_page_sweep() == []


def test_atomic_degrades_to_dma_without_atomic_unit():
    shard = ServiceShard(0, ShardConfig(seed=1, atomics=False))
    completion = shard.execute(Request(tenant="a", kind="atomic"))
    assert completion.ok
    assert completion.bytes_moved > 8  # served as a DMA


def test_message_channels_are_capped():
    shard = ServiceShard(0, ShardConfig(seed=1, max_message_channels=1))
    first = shard.execute(Request(tenant="a", kind="message", size=256))
    second = shard.execute(Request(tenant="b", kind="message", size=256))
    assert first.ok and second.ok
    # Only one ring was built; the second tenant degraded to DMA.
    assert shard._message_channels == 1


def test_wrong_data_detected_and_region_restored():
    shard = ServiceShard(0, ShardConfig(seed=1))
    shard.execute(Request(tenant="a", size=256))  # registers the tenant
    tenant = shard.tenant("a")
    # Corrupt the source: the transfer now lands bytes that differ from
    # the registered pattern.
    shard.ws.ram.write(tenant.src_paddr, bytes(64))
    completion = shard.execute(Request(tenant="a", size=64))
    assert not completion.ok
    assert completion.outcome == OUTCOME_WRONG_DATA
    assert shard.wrong_data == 1
    # The destination canary was re-armed; only the source remains
    # tampered (which the sweep reports).
    problems = shard.wrong_page_sweep()
    assert problems == ["a: source pattern tampered"]
    # Repair the source; the shard is clean again.
    shard.ws.ram.write(tenant.src_paddr, tenant.pattern)
    ok = shard.execute(Request(tenant="a", size=64))
    assert ok.ok
    assert shard.wrong_page_sweep() == []


def test_identical_seeds_replay_identically():
    def run():
        shard = ServiceShard(0, ShardConfig(seed=9))
        out = []
        for i in range(8):
            completion = shard.execute(
                Request(tenant=f"t{i % 3}", size=512, hot=i % 2 == 0))
            out.append((completion.outcome, completion.latency_us,
                        completion.attempts))
        return out

    assert run() == run()


def test_fault_plan_attach_detach_and_counters():
    shard = ServiceShard(0, ShardConfig(seed=1))
    plan = FaultPlan(rules=[FaultRule(kind="drop", target="completion",
                                      nth=1, count=1)], seed=0)
    shard.attach_faults(plan)
    completion = shard.execute(Request(tenant="a", size=512))
    assert completion.ok
    assert completion.attempts > 1  # the dropped completion forced a retry
    assert shard.faults_injected == 1
    shard.detach_faults()
    assert shard.faults_injected == 1  # survives detach
    clean = shard.execute(Request(tenant="a", size=512))
    assert clean.attempts == 1
    assert shard.wrong_page_sweep() == []


def test_soaked_shard_under_faults_stays_isolated():
    shard = ServiceShard(0, ShardConfig(seed=5))
    shard.attach_faults(bernoulli_plan(0.2, seed=5))
    outcomes = [shard.execute(Request(tenant=f"t{i % 4}", size=1024,
                                      hot=i % 3 == 0))
                for i in range(40)]
    assert shard.faults_injected > 0
    assert all(isinstance(c, Completion) for c in outcomes)
    # Detected wrong-data is allowed; isolation violations are not.
    assert shard.wrong_page_sweep() == []
    assert shard.wrong_transfers == 0


def test_counters_and_snapshot_shape():
    shard = ServiceShard(2, ShardConfig(seed=1))
    shard.execute(Request(tenant="a"))
    counters = shard.counters()
    assert set(counters) == {"retries", "completion_timeouts",
                             "kernel_fallbacks", "retry_exhausted"}
    snapshot = shard.snapshot()
    assert snapshot["shard"] == 2
    assert snapshot["tenants"] == 1
    assert snapshot["requests"] == 1
    assert snapshot["bytes_moved"] == 1024
    assert snapshot["wrong_data"] == 0
    assert snapshot["wrong_transfers"] == 0
    assert snapshot["sim_elapsed_us"] > 0


def test_request_validation():
    with pytest.raises(ConfigError):
        Request(tenant="", size=64)
    with pytest.raises(ConfigError):
        Request(tenant="a", kind="bogus")
    with pytest.raises(ConfigError):
        Request(tenant="a", size=0)
    with pytest.raises(ConfigError):
        Request.from_dict({"tenant": "a", "nope": 1})
    with pytest.raises(ConfigError):
        Request.from_dict({"kind": "dma"})
    # An array of field names would pass the field checks and then
    # fail in dict(data) with a ValueError the wire handler misses.
    for data in (["tenant"], "tenant", None):
        with pytest.raises(ConfigError, match="JSON object"):
            Request.from_dict(data)
    # Mistyped fields and malformed trace contexts are typed errors too,
    # not values that fail later inside the service.
    for fields in ({"tenant": 5}, {"tenant": ["x"]}, {"size": True},
                   {"size": 1.5}, {"hot": 1}, {"shard": "0"},
                   {"tick": False}, {"req_id": None}, {"trace": 5},
                   {"trace": {"x": 1}},
                   {"trace": {"trace_id": "t", "request_id": "x"}},
                   {"size": MAX_TRANSFER_BYTES + 1}, {"size": 2**70},
                   {"tenant": "x" * (MAX_TENANT_NAME + 1)}):
        with pytest.raises(ConfigError):
            Request.from_dict({"tenant": "a", **fields})
    assert Request.from_dict({"tenant": "a", "shard": None}).shard is None
    # The caps are inclusive, and in-process callers keep the clamp.
    longest = Request.from_dict({"tenant": "x" * MAX_TENANT_NAME,
                                 "size": MAX_TRANSFER_BYTES})
    assert longest.size == MAX_TRANSFER_BYTES
    assert Request(tenant="a", size=2**70).size == 2**70


def test_pattern_and_canary_are_tenant_specific():
    shard = ServiceShard(0, ShardConfig(seed=1))
    shard.execute(Request(tenant="a"))
    shard.execute(Request(tenant="b"))
    a, b = shard.tenant("a"), shard.tenant("b")
    assert a.pattern != b.pattern
    assert a.canary != b.canary
    assert len(a.pattern) == TENANT_BUFFER_BYTES


def test_tenants_whose_seeds_agree_mod_256_share_their_patterns():
    """Tenant i's source and canary depend on i only mod 256, so the
    shard's tenants share 512 patterns instead of owning two each."""
    shard = ServiceShard(0, ShardConfig(seed=1))
    tenants = [shard.tenant(f"t{i}") for i in range(257)]
    assert tenants[256].pattern is tenants[0].pattern
    assert tenants[256].canary is tenants[0].canary
    assert len({id(t.pattern) for t in tenants}) == 256


def test_pattern_and_canary_match_the_per_byte_expressions():
    shard = ServiceShard(0, ShardConfig(seed=1))
    for index, name in enumerate(("a", "b", "c")):
        shard.execute(Request(tenant=name))
        tenant = shard.tenant(name)
        assert tenant.pattern == bytes((index * 31 + i) % 256
                                       for i in range(TENANT_BUFFER_BYTES))
        salt = index * 17 + 0x5A
        assert tenant.canary == bytes((salt + i * 13) % 256
                                      for i in range(TENANT_BUFFER_BYTES))
    hot = shard.ws.ram.read(shard._hot_buffer.paddr, HOT_SLOT_BYTES)
    assert hot == bytes((0xC3 + i * 13) % 256 for i in range(HOT_SLOT_BYTES))


def test_full_shard_refuses_new_tenants_and_keeps_serving():
    """16 MiB of RAM holds 1,023 tenants (two 8 KiB frames each, after
    the hot buffer's two); later newcomers are refused, not crashed on."""
    shard = ServiceShard(0, ShardConfig(seed=1))
    completions = [shard.execute(Request(tenant=f"t{i:04d}", size=512))
                   for i in range(1100)]
    assert len(completions) == 1100
    assert all(c.ok for c in completions[:1023])
    refused = completions[1023:]
    assert all(c.outcome == OUTCOME_REJECTED and not c.ok
               and c.reason == REASON_SHARD_FULL and c.shard == 0
               and c.bytes_moved == 0 for c in refused)
    assert shard.n_tenants == 1023
    assert shard.requests_executed == 1023
    # Refusals spawn nothing: tenants plus the hot receiver.
    assert len(shard.ws.kernel.processes) == 1024
    assert shard.ws.allocator.contiguous_frames_left == 0
    # Earlier tenants are still served; a message request that finds no
    # room for a ring is served as a plain DMA.
    assert shard.execute(Request(tenant="t0000", size=256)).ok
    message = shard.execute(Request(tenant="t0001", kind="message",
                                    size=256))
    assert message.ok and shard._message_channels == 0
    assert shard.wrong_page_sweep() == []


def test_message_channel_frame_count_matches_allocation():
    shard = ServiceShard(0, ShardConfig(seed=1))
    shard.execute(Request(tenant="a", size=256))
    before = shard.ws.allocator.contiguous_frames_left
    assert shard.execute(Request(tenant="a", kind="message", size=256)).ok
    assert shard._message_channels == 1
    assert (before - shard.ws.allocator.contiguous_frames_left
            == MESSAGE_CHANNEL_FRAMES)


def test_served_requests_leave_no_thread_behind():
    """The machine keeps nothing per request: once ~200 DMA, atomic and
    message requests from user- and kernel-channel tenants are served,
    at most the CPU's most recent thread is still alive."""
    shard = ServiceShard(0, ShardConfig(seed=1, n_contexts=2, atomics=True))
    kinds = ("dma", "dma", "atomic", "message")
    completions = [
        shard.execute(Request(tenant=f"t{i % 6}", kind=kinds[i % 4],
                              size=256 + 64 * (i % 5), hot=i % 7 == 0))
        for i in range(200)]
    assert all(c.ok for c in completions)
    vias = {shard.tenant(f"t{i}").channel.via for i in range(6)}
    assert vias == {"user", "kernel"}
    gc.collect()
    alive = [o for o in gc.get_objects() if isinstance(o, Thread)]
    assert len(alive) <= 1
