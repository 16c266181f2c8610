"""The hardened DMA paths: retry, backoff, timeout, kernel fallback."""

from repro.faults.injector import Injector
from repro.faults.plan import DROP, FaultPlan, FaultRule
from repro.faults.retry import RetryPolicy
from repro.units import us

from .conftest import TRANSFER_BYTES

POLICY = RetryPolicy(max_attempts=3, base_backoff=us(2),
                     completion_timeout=us(500))


def attach(rig, *rules, seed=0):
    plan = FaultPlan(rules=list(rules), seed=seed)
    return Injector(plan, rig.ws.sim).attach(rig.ws)


def test_fault_free_path_is_single_attempt(make_rig):
    rig = make_rig()
    result = rig.chan.dma_reliable(rig.src.vaddr, rig.dst.vaddr,
                                   TRANSFER_BYTES, policy=POLICY)
    assert result.ok and not result.recovered
    assert result.attempts == 1 and not result.fell_back
    assert rig.landed()
    assert rig.ws.stats.counter("dma.retries").value == 0


def test_retry_recovers_from_transient_store_drop(make_rig):
    rig = make_rig()
    attach(rig, FaultRule(kind=DROP, target="store", nth=1, count=1))
    result = rig.chan.initiate_reliable(rig.src.vaddr, rig.dst.vaddr,
                                        TRANSFER_BYTES, policy=POLICY)
    assert result.ok and result.recovered and not result.fell_back
    assert result.attempts == 2
    stats = rig.ws.stats
    assert stats.counter("dma.retries").value == 1
    assert stats.counter("dma.recoveries").value == 1
    assert stats.counter("dma.kernel_fallbacks").value == 0
    (root,) = [s for s in rig.ws.spans.finished()
               if s.name == "dma.reliable"]
    assert root.attrs["outcome"] == "retried"
    assert root.attrs["attempts"] == 2


def test_dma_reliable_recovers_lost_completion(make_rig):
    rig = make_rig()
    attach(rig, FaultRule(kind=DROP, target="completion", nth=1, count=1))
    result = rig.chan.dma_reliable(rig.src.vaddr, rig.dst.vaddr,
                                   TRANSFER_BYTES, policy=POLICY)
    assert result.ok and result.recovered
    assert rig.landed()
    assert result.attempts == 2
    assert rig.ws.stats.counter("dma.completion_timeouts").value == 1


def test_kernel_fallback_after_retry_exhaustion(make_rig):
    rig = make_rig()
    attach(rig, FaultRule(kind=DROP, target="store", probability=1.0))
    result = rig.chan.dma_reliable(rig.src.vaddr, rig.dst.vaddr,
                                   TRANSFER_BYTES, policy=POLICY)
    assert result.ok and result.fell_back
    assert result.attempts == POLICY.max_attempts + 1
    assert rig.landed()
    stats = rig.ws.stats
    assert stats.counter("dma.retry_exhausted").value == 1
    assert stats.counter("dma.kernel_fallbacks").value == 1
    names = [s.name for s in rig.ws.spans.finished()]
    assert names.count("dma.fallback") == 1


def test_failure_reported_when_fallback_disabled(make_rig):
    rig = make_rig()
    attach(rig, FaultRule(kind=DROP, target="store", probability=1.0))
    policy = RetryPolicy(max_attempts=2, base_backoff=us(2),
                         completion_timeout=us(500), kernel_fallback=False)
    result = rig.chan.dma_reliable(rig.src.vaddr, rig.dst.vaddr,
                                   TRANSFER_BYTES, policy=policy)
    assert not result.ok and not result.fell_back
    assert result.attempts == 2
    assert rig.dst_untouched()
    assert rig.ws.stats.counter("dma.kernel_fallbacks").value == 0


def test_backoff_advances_simulated_time(make_rig):
    rig = make_rig()
    attach(rig, FaultRule(kind=DROP, target="store", probability=1.0))
    policy = RetryPolicy(max_attempts=3, base_backoff=us(100),
                         jitter_frac=0.0, completion_timeout=us(500),
                         kernel_fallback=False)
    t0 = rig.ws.sim.now
    rig.chan.initiate_reliable(rig.src.vaddr, rig.dst.vaddr,
                               TRANSFER_BYTES, policy=policy)
    # Two backoff sleeps happen between the three attempts: 100 + 200 µs.
    assert rig.ws.sim.now - t0 >= us(300)
