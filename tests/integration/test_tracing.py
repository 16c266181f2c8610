"""Span-based tests: the engine sees exactly the access sequence the
paper's figures prescribe."""

from tests.conftest import ready_channel

#: Span-name prefixes of the engine's shadow and context-page accesses.
ACCESSES = ("dma.shadow_", "dma.context_")


def traced_channel(method):
    return ready_channel(method, spans_enabled=True)


def spans_named(ws, name):
    return [s for s in ws.spans.all_spans() if s.name == name]


def access_names(ws):
    """The engine's access spans in the order the accesses arrived."""
    return [s.name for s in ws.spans.all_spans()
            if s.name.startswith(ACCESSES)]


def test_keyed_initiation_trace():
    ws, proc, src, dst, chan = traced_channel("keyed")
    chan.initiate(src.vaddr, dst.vaddr, 64)
    # Fig. 3: two keyed shadow stores, a size store to the context page,
    # then the status load from the context page ...
    assert access_names(ws) == ["dma.shadow_store", "dma.shadow_store",
                                "dma.context_store", "dma.context_load"]
    # ... inside whose handling the start fires.
    (load,) = spans_named(ws, "dma.context_load")
    (transfer,) = spans_named(ws, "dma.transfer")
    assert transfer.parent_id == load.span_id


def test_extshadow_initiation_trace():
    ws, proc, src, dst, chan = traced_channel("extshadow")
    chan.initiate(src.vaddr, dst.vaddr, 64)
    names = access_names(ws)
    assert names[0] == "dma.shadow_store"
    assert spans_named(ws, "dma.transfer")
    # Exactly one shadow store and one shadow load (Fig. 4).
    assert names.count("dma.shadow_store") == 1
    assert names.count("dma.shadow_load") == 1


def test_repeated5_trace_shows_five_shadow_accesses():
    ws, proc, src, dst, chan = traced_channel("repeated5")
    chan.initiate(src.vaddr, dst.vaddr, 64, with_retry=False)
    shadow = [n for n in access_names(ws) if n.startswith("dma.shadow_")]
    assert shadow == ["dma.shadow_store", "dma.shadow_load",
                      "dma.shadow_store", "dma.shadow_load",
                      "dma.shadow_load"]


def test_trace_records_issuers():
    ws, proc, src, dst, chan = traced_channel("keyed")
    chan.initiate(src.vaddr, dst.vaddr, 64)
    stores = spans_named(ws, "dma.shadow_store")
    assert stores
    assert all(s.track == f"proc{proc.pid}" for s in stores)


def test_trace_records_decoded_arguments():
    ws, proc, src, dst, chan = traced_channel("extshadow")
    chan.initiate(src.vaddr, dst.vaddr, 64)
    store = spans_named(ws, "dma.shadow_store")[0]
    assert store.attrs["paddr"] == ws.engine.global_address(dst.paddr)
    transfer = spans_named(ws, "dma.transfer")[0]
    assert transfer.attrs["psrc"] == ws.engine.global_address(src.paddr)
    assert transfer.attrs["size"] == 64


def test_rejected_start_traced():
    ws, proc, src, dst, chan = traced_channel("extshadow")
    chan.initiate(src.vaddr, dst.vaddr, 1 << 30)  # too large
    (rejected,) = spans_named(ws, "dma.rejected")
    assert rejected.start == rejected.end  # an instant span
    assert rejected.attrs["outcome"] == "rejected"


def test_disabled_trace_costs_nothing():
    ws, proc, src, dst, chan = ready_channel("keyed")
    chan.initiate(src.vaddr, dst.vaddr, 64)
    assert len(ws.spans) == 0


def test_cpu_faults_switches_and_atomics_are_instant_spans():
    """A CPU fault, an atomic operation and a context switch are each
    recorded as a point span on their component's track."""
    from repro.core.atomics import AtomicChannel
    from repro.hw.cpu import StepStatus
    from repro.hw.isa import Addr, Halt, Store, assemble
    from repro.os.scheduler import RoundRobinPolicy

    ws, proc, src, dst, chan = ready_channel(
        "keyed", spans_enabled=True, atomic_mode="keyed")
    thread = proc.new_thread(assemble([Store(Addr(None, 0x7000_0000), 1),
                                       Halt()]))
    assert ws.run_thread(thread) is StepStatus.FAULTED
    (fault,) = spans_named(ws, "cpu.fault")
    assert fault.track == "cpu0"
    assert fault.attrs["pid"] == proc.pid
    assert fault.attrs["vaddr"] == 0x7000_0000

    ws.kernel.enable_user_atomics(proc)
    assert AtomicChannel(ws, proc).atomic_add(src.vaddr, 5).ok
    (atomic,) = spans_named(ws, "atomic.op")
    assert atomic.attrs["op"] == "add" and atomic.attrs["issuer"] == proc.pid

    other = ws.kernel.spawn("other")
    scheduler = ws.make_scheduler(RoundRobinPolicy(1))
    for owner in (proc, other):
        scheduler.add(owner, owner.new_thread(assemble([Halt()])))
    switches, _ = scheduler.run()
    spans = spans_named(ws, "sched.switch")
    assert len(spans) == switches >= 1
    assert spans[0].attrs["new"] == proc.pid
    for span in (fault, atomic, *spans):
        assert span.start == span.end
