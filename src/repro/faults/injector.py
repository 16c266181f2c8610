"""Runtime fault injection on a live simulated machine.

An :class:`Injector` applies a :class:`~repro.faults.plan.FaultPlan` at
three attachment points, all reversible:

* **bus** — device-window word accesses (the shadow stores and status
  loads every initiation method is made of) can be dropped, delayed,
  duplicated, reordered, or bit-flipped.  A dropped *load* returns the
  all-ones bus-timeout word, which decodes as ``STATUS_FAILURE`` — the
  same value §3.1's status convention reserves for failure, so hardened
  software already knows what to do with it;
* **completion** — the DMA transfer engine's completion event can be
  dropped (the transfer hangs forever), delayed, or duplicated;
* **link** — remote-write packets on the cluster fabric can be dropped,
  delayed, duplicated, reordered, or payload-corrupted.

Everything injected is counted in a :class:`StatRegistry` (one counter
per ``target.kind``) and, when the machine's span tracer is enabled,
recorded as an instant ``fault.<target>.<kind>`` span, so experiments
can correlate observed retries with the faults that caused them.

The injector mutates only *instance* attributes (wrappers over the bus
and fabric methods, a hook slot on the transfer engine), so
:meth:`detach` restores the machine exactly.  The component keeps its
wrappers and they keep the injector, so nothing on the injector's side
holds the component strongly: an injector attached and never detached
does not keep its machine in a reference cycle.  A component freed
before :meth:`detach` has nothing left to restore; detaching skips it.
"""

from __future__ import annotations

import functools
import weakref
from typing import Any, Callable, List, Optional, Tuple

from ..hw.bus import Bus
from ..hw.device import AccessContext
from ..hw.dma.status import STATUS_FAILURE
from ..hw.dma.transfer import DmaTransferEngine, Transfer
from ..obs.spans import SpanTracer
from ..sim.engine import Simulator
from ..sim.stats import StatRegistry
from ..units import Time
from .plan import BITFLIP, DELAY, DROP, DUPLICATE, REORDER, FaultPlan


def _weak(target: Any) -> Any:
    """A weak proxy of *target* (*target* itself if it is one)."""
    if isinstance(target, weakref.ProxyTypes):
        return target
    return weakref.proxy(target)


def _original(target: Any, name: str) -> Callable[..., Any]:
    """What ``target.<name>(...)`` calls now, for a wrapper stored on
    *target* (a weak proxy): unlike a bound method, it holds *target*
    only weakly."""
    own = vars(target).get(name)
    if own is not None:
        return own
    return functools.partial(getattr(target.__class__, name), target)


def _if_alive(step: Callable[[], None]) -> None:
    """Run *step*, which reaches a component through a weak proxy; a
    component already freed has nothing to deliver to or restore."""
    try:
        step()
    except ReferenceError:
        pass


def _interpose(target: Any,
               **wrappers: Callable[..., Any]) -> Callable[[], None]:
    """Set *wrappers* as instance attributes of *target* (a weak proxy);
    return the undo.

    The undo puts back exactly the instance attributes there were: it
    deletes the ones this added, so the class's methods show through
    again.  Assigning the saved bound methods back instead would leave
    *target* holding methods bound to itself, a reference cycle.  The
    undo reaches *target* only through the proxy and keeps the
    wrappers' names, not the wrappers (which hold the injector).
    """
    own = vars(target)
    shadowed = {name: own[name] for name in wrappers if name in own}
    own.update(wrappers)
    names = tuple(wrappers)

    def undo() -> None:
        own = vars(target)
        for name in names:
            del own[name]
        own.update(shadowed)

    return undo


class Injector:
    """Applies a fault plan to a machine's bus, DMA engine, and fabric.

    Args:
        plan: the fault schedule (its RNG state is the injector's only
            source of randomness).
        sim: the event engine (needed to schedule delayed deliveries).
        stats: counter registry; a fresh ``StatRegistry("faults")`` by
            default.
        spans: optional span tracer; each injected fault becomes an
            instant ``fault.<target>.<kind>`` span on the ``faults``
            track (taken from the workstation by :meth:`attach`).  Under
            an activated trace context the span carries the victim
            request's ``trace_id``.
    """

    def __init__(self, plan: FaultPlan, sim: Simulator,
                 stats: Optional[StatRegistry] = None,
                 spans: Optional[SpanTracer] = None) -> None:
        self.plan = plan
        self.sim = sim
        self.stats = stats if stats is not None else StatRegistry("faults")
        self.spans = spans
        self._undo: List[Callable[[], None]] = []
        self._held_store: Optional[Tuple[Bus, int, int, AccessContext]] = None
        self._held_packet: Optional[Tuple[Callable[..., None], tuple]] = None

    # ------------------------------------------------------------------
    # attachment points
    # ------------------------------------------------------------------

    def attach(self, ws: Any) -> "Injector":
        """Convenience: wrap a Workstation's bus, completions, and fabric."""
        self.attach_bus(ws.bus)
        self.attach_transfer_engine(ws.engine.transfer_engine)
        fabric = getattr(ws.nic, "fabric", None)
        if fabric is not None:
            self.attach_fabric(fabric)
        if self.spans is None:
            self.spans = getattr(ws, "spans", None)
        return self

    def attach_bus(self, bus: Bus) -> None:
        """Interpose on device-window reads and writes of *bus*."""
        bus = _weak(bus)
        orig_read = _original(bus, "read_word")
        orig_write = _original(bus, "write_word")

        def read_word(paddr: int, ctx: AccessContext) -> Tuple[int, Time]:
            if not bus.is_device(paddr):
                return orig_read(paddr, ctx)
            self._flush_held_store()
            return self._faulted_read(bus, orig_read, paddr, ctx)

        def write_word(paddr: int, value: int, ctx: AccessContext) -> Time:
            if not bus.is_device(paddr):
                return orig_write(paddr, value, ctx)
            return self._faulted_write(bus, orig_write, paddr, value, ctx)

        self._undo.append(_interpose(bus, read_word=read_word,
                                     write_word=write_word))

    def attach_transfer_engine(self, engine: DmaTransferEngine) -> None:
        """Interpose on DMA completion events of *engine*."""
        engine = _weak(engine)
        previous = engine.fault_hook

        def hook(transfer: Transfer) -> Optional[Tuple[str, Time]]:
            return self._completion_hook(
                transfer, kernel=(engine.last_via == "kernel"))

        engine.fault_hook = hook
        self._undo.append(lambda: setattr(engine, "fault_hook", previous))

    def attach_fabric(self, fabric: Any) -> None:
        """Interpose on remote-write packets of *fabric*."""
        fabric = _weak(fabric)
        orig_send = _original(fabric, "send_write")

        def send_write(src_node: int, dst_node: int, pdst_local: int,
                       payload: bytes) -> None:
            self._faulted_send(orig_send, src_node, dst_node, pdst_local,
                               payload)

        self._undo.append(_interpose(fabric, send_write=send_write))

    def detach(self) -> None:
        """Flush held operations and restore every wrapped component
        (one that has already been freed is skipped)."""
        self.flush()
        while self._undo:
            _if_alive(self._undo.pop())

    def flush(self) -> None:
        """Deliver any store/packet currently held back by REORDER (to a
        component that has not been freed)."""
        _if_alive(self._flush_held_store)
        _if_alive(self._flush_held_packet)

    # ------------------------------------------------------------------
    # per-target fault application
    # ------------------------------------------------------------------

    def _faulted_write(self, bus: Bus, orig_write: Callable[..., Time],
                       paddr: int, value: int, ctx: AccessContext) -> Time:
        rule = self.plan.decide("store", issuer=ctx.issuer, kernel=ctx.kernel)
        if rule is None:
            cost = orig_write(paddr, value, ctx)
            self._flush_held_store()
            return cost
        cost = bus.device_write_ps
        self._count("store", rule.kind, paddr=paddr, issuer=ctx.issuer)
        if rule.kind == DROP:
            # The write transaction happens on the bus (full cost) but
            # never reaches the device.
            self._flush_held_store()
            return cost
        if rule.kind == BITFLIP:
            value ^= 1 << self.plan.pick_bit(rule)
            cost = orig_write(paddr, value, ctx)
            self._flush_held_store()
            return cost
        if rule.kind == DUPLICATE:
            orig_write(paddr, value, ctx)
            cost = orig_write(paddr, value, ctx)
            self._flush_held_store()
            return cost
        if rule.kind == DELAY:
            when = self.sim.now + rule.delay
            late_ctx = ctx._replace(when=when)
            self.sim.schedule(rule.delay,
                              lambda: orig_write(paddr, value, late_ctx),
                              label="fault-delayed-store")
            self._flush_held_store()
            return cost
        # REORDER: hold this store; it is delivered right after the next
        # device access goes through (an adjacent swap).  A previously
        # held store is released first so at most one is ever in flight.
        self._flush_held_store()
        self._held_store = (bus, paddr, value, ctx)
        return cost

    def _faulted_read(self, bus: Bus, orig_read: Callable[..., Tuple[int, Time]],
                      paddr: int, ctx: AccessContext) -> Tuple[int, Time]:
        rule = self.plan.decide("load", issuer=ctx.issuer, kernel=ctx.kernel)
        if rule is None:
            return orig_read(paddr, ctx)
        self._count("load", rule.kind, paddr=paddr, issuer=ctx.issuer)
        if rule.kind == DROP:
            # A lost read transaction times out on the bus and the CPU
            # reads all-ones — exactly STATUS_FAILURE (§3.1).
            return STATUS_FAILURE, bus.device_read_ps
        if rule.kind == BITFLIP:
            value, cost = orig_read(paddr, ctx)
            return value ^ (1 << self.plan.pick_bit(rule)), cost
        if rule.kind == DELAY:
            value, cost = orig_read(paddr, ctx)
            return value, cost + rule.delay
        if rule.kind == DUPLICATE:
            # The device sees the read twice (a re-issued transaction);
            # software sees the second result.
            orig_read(paddr, ctx)
            return orig_read(paddr, ctx)
        # REORDER is meaningless for a synchronous read; pass through.
        return orig_read(paddr, ctx)

    def _completion_hook(self, transfer: Transfer, kernel: bool = False
                         ) -> Optional[Tuple[str, Time]]:
        rule = self.plan.decide("completion", kernel=kernel)
        if rule is None:
            return None
        kind = rule.kind
        if kind == BITFLIP:
            return None  # no payload to corrupt at completion level
        if kind == REORDER:
            kind = DELAY  # one completion: reordering degenerates to delay
        self._count("completion", kind, size=transfer.size,
                    pdst=transfer.pdst)
        return kind, rule.delay

    def _faulted_send(self, orig_send: Callable[..., None], src_node: int,
                      dst_node: int, pdst_local: int,
                      payload: bytes) -> None:
        rule = self.plan.decide("link")
        if rule is None:
            orig_send(src_node, dst_node, pdst_local, payload)
            self._flush_held_packet()
            return
        self._count("link", rule.kind, src=src_node, dst=dst_node,
                    nbytes=len(payload))
        if rule.kind == DROP:
            self._flush_held_packet()
            return
        if rule.kind == BITFLIP:
            corrupt = bytearray(payload)
            if corrupt:
                index = self.plan.pick_byte(rule, len(corrupt))
                corrupt[index] ^= 1 << (self.plan.pick_bit(rule) % 8)
            orig_send(src_node, dst_node, pdst_local, bytes(corrupt))
            self._flush_held_packet()
            return
        if rule.kind == DUPLICATE:
            orig_send(src_node, dst_node, pdst_local, payload)
            orig_send(src_node, dst_node, pdst_local, payload)
            self._flush_held_packet()
            return
        if rule.kind == DELAY:
            self.sim.schedule(
                rule.delay,
                lambda: orig_send(src_node, dst_node, pdst_local, payload),
                label="fault-delayed-packet")
            self._flush_held_packet()
            return
        # REORDER: hold until the next packet has been sent.
        self._flush_held_packet()
        self._held_packet = (orig_send,
                             (src_node, dst_node, pdst_local, payload))

    # ------------------------------------------------------------------

    def _flush_held_store(self) -> None:
        if self._held_store is None:
            return
        bus, paddr, value, ctx = self._held_store
        self._held_store = None
        # Deliver through the *original* path: type(bus) dispatch would
        # re-enter the wrapper; the saved write in _undo is inaccessible
        # here, so call the device directly like Bus.write_word does.
        hit = bus.find_window(paddr)
        if hit is None:
            return
        device, offset = hit
        device.mmio_write(offset, value, ctx._replace(when=self.sim.now))

    def _flush_held_packet(self) -> None:
        if self._held_packet is not None:
            send, packet_args = self._held_packet
            self._held_packet = None
            send(*packet_args)

    def _count(self, target: str, kind: str, **detail: Any) -> None:
        self.stats.counter(f"{target}.{kind}").add()
        if self.spans is not None:
            self.spans.instant(f"fault.{target}.{kind}", track="faults",
                               **detail)
