"""What the service, the machine and the checker build repeatedly is
freed by reference counting.

Each test runs its entry point once to warm imports and caches, then
again under :func:`~tests.conftest.assert_no_cyclic_garbage`: with the
cyclic collector off, a dropped workstation, harness, shard or service
must leave nothing behind for it.  Memory then follows the work, not
the collector's timing, and a finished fleet frees at once.
"""

from __future__ import annotations

import asyncio
import weakref

import pytest

from tests.conftest import assert_no_cyclic_garbage, ready_channel
from tests.net.test_now import two_node_cluster

import repro.service.soak as soak
from repro.core.api import DmaChannel
from repro.faults.injector import Injector
from repro.faults.plan import (
    DELAY,
    REORDER,
    FaultPlan,
    FaultRule,
    bernoulli_plan,
)
from repro.service.frontend import DmaService, ServiceConfig
from repro.service.requests import Request
from repro.service.shard import ServiceShard, ShardConfig
from repro.service.soak import SoakConfig, run_soak
from repro.verify import builtin_scenarios, check_scenario, run_stress
from repro.verify.model_check import make_harness
from repro.verify.synth import HuntConfig, run_hunt
from repro.verify.synth.search import HUNT_METHODS

#: One initiation method of each mechanism: keys, the syscall, repeated
#: passing, PAL, the two kernel-hooked baselines, extended shadows,
#: capabilities and the IOMMU.
METHODS = ("keyed", "kernel", "repeated5", "pal", "shrimp2", "flash",
           "extshadow", "capio", "iommu")


def warm_then_check(entry, *args, **kwargs):
    entry(*args, **kwargs)
    with assert_no_cyclic_garbage():
        entry(*args, **kwargs)


def workstation_dmas(method):
    """One blocking DMA, one reliable DMA, one initiation left pending."""
    ws, proc, src, dst, channel = ready_channel(method)
    assert channel.dma(src.vaddr, dst.vaddr, 256).ok
    assert channel.dma_reliable(src.vaddr + 4096, dst.vaddr + 4096, 256).ok
    assert channel.initiate(src.vaddr + 8192, dst.vaddr + 8192, 4096).ok
    assert ws.sim.pending  # the workstation is dropped mid-transfer


@pytest.mark.parametrize("method", METHODS)
def test_workstation(method):
    warm_then_check(workstation_dmas, method)


def workstation_with_an_attached_injector():
    """A faulted workstation dropped without detaching its injector."""
    ws, proc, src, dst, channel = ready_channel("keyed")
    Injector(bernoulli_plan(0.1, seed=7), ws.sim).attach(ws)
    assert channel.dma_reliable(src.vaddr, dst.vaddr, 256).ok


def test_workstation_with_an_injector_never_detached():
    warm_then_check(workstation_with_an_attached_injector)


def cluster_remote_dmas():
    """One remote DMA delivered, a second dropped with its message still
    on the link."""
    cluster, sender_ws, _, sender, src, _, window = two_node_cluster()
    channel = DmaChannel(sender_ws, sender)
    assert channel.dma(src.vaddr, window, 64).ok
    cluster.run_until_quiet()
    assert cluster.deliveries == 1
    assert channel.dma(src.vaddr, window, 64).ok
    assert cluster.sim.pending  # the cluster is dropped mid-delivery


def test_cluster():
    warm_then_check(cluster_remote_dmas)


def cluster_with_an_attached_injector():
    """A faulted cluster dropped without detaching its injector: one
    packet delivered, one delayed on the simulator, the last held back
    by a reorder."""
    cluster, sender_ws, _, sender, src, _, window = two_node_cluster()
    plan = FaultPlan(rules=[
        FaultRule(kind=DELAY, target="link", nth=2, count=1),
        FaultRule(kind=REORDER, target="link", nth=3, count=1)], seed=1)
    injector = Injector(plan, cluster.sim).attach(sender_ws)
    channel = DmaChannel(sender_ws, sender)
    assert channel.dma(src.vaddr, window, 64).ok
    cluster.run_until_quiet()
    assert cluster.deliveries == 1
    assert channel.dma(src.vaddr, window, 64).ok
    assert channel.dma(src.vaddr, window, 64).ok
    assert injector.plan.total_fired == 2


def test_cluster_with_an_injector_never_detached():
    warm_then_check(cluster_with_an_attached_injector)


@pytest.mark.parametrize("method", ["shrimp2", "keyed"])
def test_stress_run(method):
    warm_then_check(run_stress, method)


def shard_with_faults():
    shard = ServiceShard(0, ShardConfig(method="keyed", seed=7,
                                        atomics=True))
    shard.attach_faults(bernoulli_plan(0.3, seed=7))
    for i in range(8):
        shard.execute(Request(tenant=f"t{i}", size=1024, req_id=i))
    assert shard.faults_injected
    shard.drain()
    shard.detach_faults()


def test_shard_with_a_detached_fault_injector():
    warm_then_check(shard_with_faults)


def naive_checks():
    for scenario in builtin_scenarios()[:6]:
        check_scenario(scenario)


def test_naive_oracle():
    """The oracle resets one harness per order, often with the order's
    transfer still queued on the simulator."""
    warm_then_check(naive_checks)


def harness_with_a_queued_completion():
    scenario = builtin_scenarios()[0]
    harness = make_harness(scenario)
    order = [access for stream in scenario.streams for access in stream]
    harness.replay(order)
    assert harness.sim.pending
    harness.reset()
    harness.replay(order)
    assert harness.sim.pending


def test_harness_reset_and_dropped_with_a_completion_queued():
    warm_then_check(harness_with_a_queued_completion)


def test_hunt():
    """Candidate checks, the bandit probe and the shrinker."""
    warm_then_check(run_hunt, ["keyed", "repeated3"],
                    HuntConfig(seed=0, max_candidates=40))


def hunt_every_method():
    reports = run_hunt(HUNT_METHODS, HuntConfig(seed=7, max_candidates=40))
    # repeated3, repeated4 and iommu_noshootdown fall within 40
    # candidates at seed 7, so their cores are shrunk too.
    assert sum(report.shrunk is not None for report in reports) == 3


def test_hunt_over_every_method():
    warm_then_check(hunt_every_method)


def service_round_trip():
    async def scenario():
        service = DmaService(ServiceConfig(shards=2, spans_enabled=True))
        await service.start()
        completion = await (await service.submit(Request(
            tenant="alice", size=1024, req_id=service.next_req_id())))
        assert completion.ok
        assert await service.shutdown() == []

    asyncio.run(scenario())


def test_service_start_submit_shutdown():
    warm_then_check(service_round_trip)


def test_small_faulted_soak_with_its_control_run():
    config = SoakConfig(tenants=40, duration_s=4, fault_rate=0.1)
    warm_then_check(lambda: run_soak(config)["vs_faultfree"])


def test_benchmark_soak_round():
    """A benchmark soak round: 1,000 zipf tenants, faults, control."""
    config = SoakConfig(tenants=1000, duration_s=20, fault_rate=0.1, seed=7)
    warm_then_check(lambda: run_soak(config)["faults"]["verdict"])


def test_soak_never_holds_two_fleets(monkeypatch):
    """The control fleet is freed before the faulted fleet is built, and
    each fleet as soon as its figures are read."""
    built = []

    class Recorded(DmaService):
        def __init__(self, config):
            alive = [i for i, ref in enumerate(built) if ref() is not None]
            assert not alive, f"fleet {alive} alive while building another"
            super().__init__(config)
            built.append(weakref.ref(self))

    monkeypatch.setattr(soak, "DmaService", Recorded)
    report = run_soak(SoakConfig(tenants=20, duration_s=2, fault_rate=0.1))
    assert len(built) == 2 and "vs_faultfree" in report
    assert built[0]() is None  # the control fleet
    assert built[1]() is report["_service"]
    del report
    assert built[1]() is None
