"""Runtime fault injection on a live machine (Injector)."""

import gc
import weakref

import pytest

from repro.core.api import DmaChannel
from repro.faults.injector import Injector
from repro.faults.plan import (
    BITFLIP,
    DELAY,
    DROP,
    DUPLICATE,
    REORDER,
    FaultPlan,
    FaultRule,
)
from repro.units import us

from tests.net.test_now import two_node_cluster

from .conftest import TRANSFER_BYTES


def attach(rig, *rules, seed=0):
    plan = FaultPlan(rules=list(rules), seed=seed)
    return Injector(plan, rig.ws.sim).attach(rig.ws)


def test_dropped_store_fails_initiation(make_rig):
    rig = make_rig()
    injector = attach(rig, FaultRule(kind=DROP, target="store", nth=1,
                                     count=1))
    result = rig.chan.initiate(rig.src.vaddr, rig.dst.vaddr, TRANSFER_BYTES)
    assert not result.ok
    assert injector.stats.counter("store.drop").value == 1
    assert rig.dst_untouched()


def test_dropped_status_load_reads_bus_timeout(make_rig):
    rig = make_rig()
    injector = attach(rig, FaultRule(kind=DROP, target="load", nth=1,
                                     count=1))
    result = rig.chan.initiate(rig.src.vaddr, rig.dst.vaddr, TRANSFER_BYTES)
    # The all-ones timeout word decodes as STATUS_FAILURE (§3.1), so the
    # initiation reports failure even though the device accepted it.
    assert not result.ok
    assert injector.stats.counter("load.drop").value == 1


def test_dropped_completion_hangs_transfer(make_rig):
    rig = make_rig()
    attach(rig, FaultRule(kind=DROP, target="completion", probability=1.0))
    result = rig.chan.dma(rig.src.vaddr, rig.dst.vaddr, TRANSFER_BYTES,
                          wait=False)
    assert result.initiation.ok and result.transfer is not None
    completed = rig.ws.sim.wait_for(lambda: result.transfer.completed,
                                    timeout=us(5_000))
    assert not completed
    assert rig.dst_untouched()


def test_duplicate_completion_is_idempotent(make_rig):
    rig = make_rig()
    attach(rig, FaultRule(kind=DUPLICATE, target="completion", nth=1,
                          count=1))
    result = rig.chan.dma(rig.src.vaddr, rig.dst.vaddr, TRANSFER_BYTES)
    rig.ws.sim.advance(us(1_000))  # let the spurious second event fire
    assert result.ok
    assert rig.landed()
    # The re-run mover is visible as double-counted engine bytes.
    assert (rig.ws.engine.transfer_engine.bytes_moved
            == 2 * TRANSFER_BYTES)


def test_kernel_path_is_immune_by_default(make_rig):
    rig = make_rig()
    attach(rig,
           FaultRule(kind=DROP, target="store", probability=1.0),
           FaultRule(kind=DROP, target="completion", probability=1.0))
    kchan = DmaChannel(rig.ws, rig.proc, via="kernel")
    result = kchan.dma(rig.src.vaddr, rig.dst.vaddr, TRANSFER_BYTES)
    assert result.ok
    assert rig.landed()


def test_bitflip_store_is_counted_and_traced(make_rig):
    rig = make_rig()
    injector = attach(rig, FaultRule(kind=BITFLIP, target="store", nth=1,
                                     count=1, bit=0))
    rig.chan.initiate(rig.src.vaddr, rig.dst.vaddr, TRANSFER_BYTES)
    assert injector.stats.counter("store.bitflip").value == 1
    flips = [s for s in rig.ws.spans.finished()
             if s.name == "fault.store.bitflip"]
    assert len(flips) == 1
    assert flips[0].track == "faults" and flips[0].start == flips[0].end


def test_detach_restores_the_machine(make_rig):
    rig = make_rig()
    injector = attach(rig,
                      FaultRule(kind=DROP, target="store", probability=1.0),
                      FaultRule(kind=DROP, target="completion",
                                probability=1.0))
    injector.detach()
    result = rig.chan.dma(rig.src.vaddr, rig.dst.vaddr, TRANSFER_BYTES)
    assert result.ok
    assert rig.landed()
    assert injector.plan.total_fired == 0


def test_injector_detach_restores_the_bus(make_rig):
    """Detach deletes the wrappers rather than pinning the class's bound
    methods on the instance, which would make the bus reach itself."""
    rig = make_rig()
    first = attach(rig, FaultRule(kind=DROP, target="store", nth=1, count=1))
    second = attach(rig, FaultRule(kind=DROP, target="load", nth=1, count=1))
    wrapped = dict(vars(rig.ws.bus))
    second.detach()
    assert vars(rig.ws.bus)["read_word"] is not wrapped["read_word"]
    first.detach()
    assert "read_word" not in vars(rig.ws.bus)
    assert "write_word" not in vars(rig.ws.bus)


def test_injection_is_replayable(make_rig):
    def fired_pattern():
        rig = make_rig()
        plan = FaultPlan(rules=[
            FaultRule(kind=DROP, target="store", probability=0.3)], seed=11)
        Injector(plan, rig.ws.sim).attach(rig.ws)
        for _ in range(5):
            rig.chan.initiate(rig.src.vaddr, rig.dst.vaddr, TRANSFER_BYTES)
        return plan.total_fired

    assert fired_pattern() == fired_pattern()


def test_fault_records_carry_the_active_trace_context(make_rig):
    """Under an activated trace context, every injected fault's span
    inherits the victim request's trace_id."""
    from repro.obs.context import TraceContext

    rig = make_rig()
    attach(rig, FaultRule(kind=DROP, target="store", nth=1, count=1))
    ctx = TraceContext(trace_id="7-00000042", tenant="a", request_id=42)
    with rig.ws.spans.activate(ctx, process="shard0"):
        rig.chan.initiate(rig.src.vaddr, rig.dst.vaddr, TRANSFER_BYTES)
    fault_spans = [s for s in rig.ws.spans.finished()
                   if s.name == "fault.store.drop"]
    assert len(fault_spans) == 1
    assert fault_spans[0].attrs["trace_id"] == "7-00000042"
    assert fault_spans[0].attrs["process"] == "shard0"


@pytest.mark.parametrize("kind,deliveries", [
    (None, 1), (DROP, 0), (DUPLICATE, 2), (DELAY, 1), (REORDER, 1),
    (BITFLIP, 1)])
def test_link_faults_on_a_cluster_node(kind, deliveries):
    """The injector wraps the cluster fabric's packet send: a remote DMA
    is delivered, or its packet's fault is counted."""
    cluster, sender_ws, receiver_ws, sender, src, dst, window = (
        two_node_cluster())
    payload = bytes(range(64))
    sender_ws.ram.write(src.paddr, payload)
    rules = [] if kind is None else [
        FaultRule(kind=kind, target="link", nth=1, count=1)]
    injector = Injector(FaultPlan(rules=rules, seed=1),
                        cluster.sim).attach(sender_ws)
    assert DmaChannel(sender_ws, sender).dma(src.vaddr, window, 64).ok
    injector.detach()  # delivers a held (reordered) packet
    cluster.run_until_quiet()
    assert cluster.deliveries == deliveries
    assert injector.plan.total_fired == (kind is not None)
    if kind is not None:
        assert injector.stats.counter(f"link.{kind}").value == 1
    landed = receiver_ws.ram.read(dst.paddr, 64)
    assert (landed == payload) == (kind not in (DROP, BITFLIP))


def test_detach_after_the_machine_is_freed_does_nothing(make_rig):
    """A reordered packet is held when the cluster is dropped: detach and
    flush have nothing left to deliver to or restore."""
    cluster, sender_ws, _, sender, src, _, window = two_node_cluster()
    injector = Injector(FaultPlan(rules=[
        FaultRule(kind=REORDER, target="link", nth=1, count=1)], seed=1),
        cluster.sim).attach(sender_ws)
    assert DmaChannel(sender_ws, sender).dma(src.vaddr, window, 64).ok
    rig = make_rig()
    attach(rig, FaultRule(kind=DROP, target="store", nth=1, count=1))
    alive = [weakref.ref(cluster), weakref.ref(rig.ws)]
    del cluster, sender_ws, sender, src, window, rig
    gc.collect()
    assert [ref() for ref in alive] == [None, None]
    injector.flush()
    injector.detach()
