"""Property-based fault-tolerance tests (hypothesis).

The ISSUE-level property, at two levels:

* **Checker level** — any single fault applied to a fault-hardened
  method's access streams leaves the protection properties intact over
  *every* interleaving (no fault can mint an unauthorized DMA start).
* **Timed level** — under any single runtime fault, a hardened
  ``dma_reliable`` either completes correctly (possibly after retry /
  kernel fallback) or reports failure having moved nothing; it never
  lands bytes on a page the operation did not name.

Both tests are derandomized so CI is deterministic.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.api import DmaChannel
from repro.core.machine import MachineConfig, Workstation
from repro.faults.injector import Injector
from repro.faults.plan import (
    BITFLIP,
    DELAY,
    DROP,
    DUPLICATE,
    FaultPlan,
    FaultRule,
)
from repro.faults.retry import RetryPolicy
from repro.units import us
from repro.verify.adversary import pair_race_scenario
from repro.verify.faulted import (
    FAULT_HARDENED_METHODS,
    apply_fault,
    enumerate_single_faults,
)
from repro.verify.incremental import check_scenario_incremental

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

TRANSFER_BYTES = 2048

#: Runtime fault menu the timed-level property draws from.
RUNTIME_FAULTS = [
    (kind, target)
    for target in ("store", "load", "completion")
    for kind in (DROP, DELAY, DUPLICATE, BITFLIP)
]

POLICY = RetryPolicy(max_attempts=4, base_backoff=us(2),
                     completion_timeout=us(500))


# ----------------------------------------------------------------------
# checker level
# ----------------------------------------------------------------------

def _race(method):
    scenario = pair_race_scenario(method)
    scenario.page_bounded = True
    scenario.check_truthfulness = False
    return scenario


_SPECS = {method: enumerate_single_faults(_race(method))
          for method in FAULT_HARDENED_METHODS}


@SETTINGS
@given(data=st.data())
def test_no_single_fault_mints_an_attack(data):
    method = data.draw(st.sampled_from(FAULT_HARDENED_METHODS))
    spec = data.draw(st.sampled_from(_SPECS[method]))
    variant = apply_fault(_race(method), spec)
    result = check_scenario_incremental(variant)
    assert not result.attack_found, (
        f"{method} newly unsafe under {spec.label()}: {result.summary()}")


# ----------------------------------------------------------------------
# timed level
# ----------------------------------------------------------------------

@SETTINGS
@given(method=st.sampled_from(("keyed", "repeated5")),
       fault=st.sampled_from(RUNTIME_FAULTS),
       nth=st.integers(min_value=1, max_value=6),
       bit=st.integers(min_value=0, max_value=63))
def test_single_runtime_fault_never_wrong_pages(method, fault, nth, bit):
    kind, target = fault
    ws = Workstation(MachineConfig(method=method, page_bounded=True,
                                   seed=3))
    proc = ws.kernel.spawn("t")
    ws.kernel.enable_user_dma(proc)
    src = ws.kernel.alloc_buffer(proc, 8192)
    dst = ws.kernel.alloc_buffer(proc, 8192)
    victim = ws.kernel.alloc_buffer(proc, 8192)
    payload = bytes(range(256)) * (TRANSFER_BYTES // 256)
    sentinel = b"\xa5" * 8192
    ws.ram.write(src.paddr, payload)
    ws.ram.write(dst.paddr, b"\0" * TRANSFER_BYTES)
    ws.ram.write(victim.paddr, sentinel)

    rule = FaultRule(kind=kind, target=target, nth=nth, count=1,
                     bit=bit if kind == BITFLIP else None)
    injector = Injector(FaultPlan(rules=[rule], seed=1), ws.sim).attach(ws)
    chan = DmaChannel(ws, proc)
    result = chan.dma_reliable(src.vaddr, dst.vaddr, TRANSFER_BYTES,
                               policy=POLICY)
    ws.sim.advance(us(2_000))  # let delayed/duplicate events settle
    injector.detach()

    landed = ws.ram.read(dst.paddr, TRANSFER_BYTES)
    # Either the operation completed correctly (after however many
    # retries), or it aborted having transferred nothing.
    if result.ok:
        assert landed == payload
    else:
        assert landed == b"\0" * TRANSFER_BYTES
    # Never wrong-pages: a page the operation did not name stays intact.
    assert ws.ram.read(victim.paddr, 8192) == sentinel
    assert ws.ram.read(src.paddr, TRANSFER_BYTES) == payload
