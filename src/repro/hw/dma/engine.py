"""The DMA engine device.

One MMIO device implements everything the paper's prototype board did:

* decodes **shadow accesses** and feeds them to the active initiation
  protocol (§2.3);
* exposes **register-context pages**, one per context, that the OS maps
  into at most one process each (§3.1);
* exposes a **kernel-only key table** ("memory locations un-readable by
  user processes", §3.1);
* exposes a **kernel-only control page** with the classic Fig. 1 DMA
  registers (SOURCE / DESTINATION / SIZE / STATUS), the mapped-out table
  programming registers for SHRIMP-1, and the two hook registers that
  model the SHRIMP-2 / FLASH kernel modifications (CURRENT_PID, ABORT);
* owns the **data mover** that performs accepted transfers in background
  simulated time.

Every accepted or rejected initiation is recorded in
:attr:`DmaEngine.initiations` with the issuing process id — bookkeeping
the verification layer uses to check the paper's safety properties.  The
protocols themselves never see it.  A machine that runs indefinitely
folds the records into counts between operations
(:meth:`DmaEngine.drop_records`); a checker harness keeps them.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, NamedTuple, Optional

from ...errors import ConfigError, DeviceError
from ...obs.spans import Span, SpanTracer
from ...sim.engine import Simulator
from ...sim.journal import UndoJournal
from ...units import Time, mbps, ns
from ..device import AccessContext, MmioDevice
from ..memory import PhysicalMemory
from ..pagetable import PAGE_MASK, PAGE_SHIFT, page_base, page_offset
from .contexts import RegisterContext
from .recognizer import InitiationProtocol, ShadowAccess
from .shadow import ShadowLayout
from .status import STATUS_FAILURE
from .transfer import DmaTransferEngine, Transfer

# Control-page register offsets (Fig. 1 names).
REG_SOURCE = 0x00
REG_DESTINATION = 0x08
REG_SIZE = 0x10
REG_STATUS = 0x18
REG_CURRENT_PID = 0x20
REG_ABORT = 0x28
REG_MAPOUT_SRC = 0x30
REG_MAPOUT_DST = 0x38


class InitiationRecord(NamedTuple):
    """One initiation attempt that reached the start logic (a
    NamedTuple, like the per-access records: one is built per start).

    Attributes:
        when: simulation time of the attempt.
        psrc / pdst / size: the argument triple presented.
        issuer: pid of the access that triggered the start attempt
            (verification bookkeeping only).
        via: "kernel" or the user-level protocol name.
        ctx_id: register context involved, or None.
        ok: whether a transfer actually started.
    """

    when: Time
    psrc: int
    pdst: int
    size: int
    issuer: Optional[int]
    via: str
    ctx_id: Optional[int]
    ok: bool


class DmaEngine(MmioDevice):
    """The paper's DMA/network-interface engine as a bus device.

    Args:
        sim: event engine.
        ram: host physical memory (transfer endpoints live here).
        protocol: the active user-level initiation protocol.
        layout: window geometry.
        bandwidth_bps: data-mover bandwidth.
        startup: fixed per-transfer latency.
        page_bounded: harden user-level initiations against corrupted
            size words — reject any start whose source or destination
            range crosses a page boundary, unless it came through the
            kernel path.  A user-level argument travels as one word on
            the bus; a bit-flip in its size field could otherwise grow
            a transfer into a neighbouring process's page even though
            every *authorized* page the MMU let the process name was
            fine.  Off by default (the paper's engine trusts the bus);
            fault-tolerant configurations turn it on and split large
            transfers per page.
        name: device name.
    """

    def __init__(self, sim: Simulator, ram: PhysicalMemory,
                 protocol: InitiationProtocol,
                 layout: Optional[ShadowLayout] = None,
                 bandwidth_bps: float = mbps(400.0),
                 startup: Time = ns(200),
                 page_bounded: bool = False,
                 spans: Optional[SpanTracer] = None,
                 name: str = "dma") -> None:
        super().__init__(name)
        self.sim = sim
        self.ram = ram
        self.layout = layout if layout is not None else ShadowLayout()
        if ram.size > self.layout.max_argument_paddr:
            raise ConfigError(
                "RAM does not fit in the shadow argument field; "
                "enlarge ctx_shift or shrink RAM")
        #: Causal span tracer (disabled by default; one branch per access).
        self.spans = spans if spans is not None else SpanTracer(
            sim.time_source())
        self.contexts = [RegisterContext(i)
                         for i in range(self.layout.n_contexts)]
        self.key_table: Dict[int, int] = {}
        self.mapout_table: Dict[int, int] = {}
        self.current_pid: int = -1
        self.initiations: List[InitiationRecord] = []
        #: Initiations whose records :meth:`drop_records` folded away.
        self.initiations_dropped = 0
        self.protocol_violations = 0
        self.page_bounded = page_bounded
        self.oversize_rejections = 0
        # The data mover calls back into this engine through a weak
        # reference: a bound method would make the engine and its
        # transfer engine a reference cycle.
        move_bytes = weakref.WeakMethod(self._move_bytes)
        self.transfer_engine = DmaTransferEngine(
            sim, bandwidth_bps, startup,
            lambda psrc, pdst, size: move_bytes()(psrc, pdst, size),
            spans=self.spans)
        self._control_src = 0
        self._control_dst = 0
        self._control_status = 0
        self._control_transfer: Optional[Transfer] = None
        self._mapout_src_latch: Optional[int] = None
        # Shared undo journal (checker backtracking): None when unbound.
        self._undo: Optional[UndoJournal] = None
        self._ctx_epochs = [0] * len(self.contexts)
        # Fingerprint caches, valid only because every mutation site
        # either keys them on a length (append/truncate-only lists) or
        # invalidates them explicitly (table writes, context captures,
        # undo callbacks, transfer-completion flips).  The contexts'
        # part is kept per context: a capture or undo drops only the
        # context it touched (None marks a stale slot).
        self._init_fp: tuple = ()
        self._tables_fp: Optional[tuple] = None
        self._ctx_fps: List[Optional[tuple]] = [None] * len(self.contexts)
        self._ctx_fp: Optional[tuple] = None
        self._ctx_fp_flips = 0
        self.protocol = protocol
        protocol.attach(self)

    # ------------------------------------------------------------------
    # Undo journal (the checker's O(changes) backtracking substrate)
    # ------------------------------------------------------------------

    def bind_journal(self, journal: Optional[UndoJournal]) -> None:
        """Attach (or detach, with None) a shared undo journal.

        While bound, a register context is captured where it is mutated
        (once per epoch, see :meth:`capture_context`) and the rare
        mutations (table writes, initiation-record appends) record
        individually, so ``journal.undo_to(mark)`` restores the engine
        at cost proportional to what actually changed.  The scalar blob
        (:meth:`_scalar_state`) is captured by whoever marks: the
        checker's harness puts it in each edge's mark.  Cascades to the
        transfer engine.

        Raises:
            ConfigError: if the engine's span tracer (which the transfer
                engine shares) is enabled: undo does not rewind spans.
        """
        if journal is not None and self.spans.enabled:
            raise ConfigError(
                f"{self.name}: a journaled engine records no spans; "
                "disable its span tracer first")
        self._undo = journal
        self._ctx_epochs = [0] * len(self.contexts)
        self._init_fp = ()
        self._tables_fp = None
        self._ctx_fp = None
        self._ctx_fps = [None] * len(self.contexts)
        self.transfer_engine.bind_journal(journal)

    def _scalar_state(self) -> tuple:
        """The protocol FSM blob and the scalar engine state, captured
        together in the mark that opens each checker edge.

        Subclasses with extra scalar state extend the tuple (and override
        :meth:`_restore_scalar_state` to match).
        """
        return (self.protocol.snapshot_state(), self.current_pid,
                self.protocol_violations, self.oversize_rejections,
                self._control_src, self._control_dst, self._control_status,
                self._control_transfer, self._mapout_src_latch)

    def _restore_scalar_state(self, blob: tuple) -> None:
        (protocol_state, self.current_pid, self.protocol_violations,
         self.oversize_rejections, self._control_src, self._control_dst,
         self._control_status, self._control_transfer,
         self._mapout_src_latch) = blob
        self.protocol.restore_state(protocol_state)

    def capture_context(self, context: RegisterContext) -> None:
        """Record *context* for undo before the caller mutates it.

        Called only with a journal bound, before every register-context
        mutation: the context-page accesses, :meth:`try_start`, the
        keyed and capio argument stores, and the kernel's
        :meth:`assign_context` and :meth:`release_context`.  The capture
        happens once per journal epoch; the context's cached fingerprint
        drops on every call.  (An unjournaled engine keeps no contexts'
        fingerprint cache, so its mutation sites skip this call.)
        """
        ctx_id = context.ctx_id
        self._ctx_fps[ctx_id] = None
        self._ctx_fp = None
        journal = self._undo
        epochs = self._ctx_epochs
        if epochs[ctx_id] != journal.epoch:
            epochs[ctx_id] = journal.epoch
            journal.record_call(self._restore_context,
                                (context, context.snapshot()))

    def _restore_context(self, entry: tuple) -> None:
        context, state = entry
        context.restore(state)
        self._ctx_fps[context.ctx_id] = None
        self._ctx_fp = None

    def _j_table(self, table: Dict[int, int], key: int) -> None:
        """Journal a privileged-table write (undo restores or re-deletes)."""
        self._tables_fp = None
        journal = self._undo
        if journal is None:
            return
        if key in table:
            journal.record_call(self._restore_table_item,
                                (table, key, table[key]))
        else:
            journal.record_call(self._restore_table_del, (table, key))

    def _restore_table_item(self, entry: tuple) -> None:
        table, key, value = entry
        table[key] = value
        self._tables_fp = None

    def _restore_table_del(self, entry: tuple) -> None:
        table, key = entry
        table.pop(key, None)
        self._tables_fp = None

    # ------------------------------------------------------------------
    # MMIO entry points: decode the offset, then hand the access to the
    # decoded entry points below (or to a privileged page)
    # ------------------------------------------------------------------

    def mmio_write(self, offset: int, value: int, ctx: AccessContext) -> None:
        issuer, kernel, when = ctx
        layout = self.layout
        # The shadow decode (ShadowLayout.decode_offset) and the context
        # page test, in place: they run on every engine access.
        rel = offset - layout.shadow_offset
        if 0 <= rel < layout.shadow_region_size:
            self.shadow_store(rel >> layout.ctx_shift,
                              rel & layout.argument_mask, value,
                              issuer, kernel, when)
            return
        page = offset >> PAGE_SHIFT
        if 0 <= page < layout.n_contexts:
            self.context_store(page, offset & PAGE_MASK, value,
                               issuer, kernel, when)
            return
        reg = offset & PAGE_MASK
        if page == layout.key_page_offset >> PAGE_SHIFT:
            self._key_write(reg, value, ctx)
            return
        if page == layout.control_page_offset >> PAGE_SHIFT:
            self._control_write(reg, value, ctx)
            return
        raise DeviceError(f"{self.name}: write to unmapped offset {offset:#x}")

    def mmio_read(self, offset: int, ctx: AccessContext) -> int:
        issuer, kernel, when = ctx
        layout = self.layout
        rel = offset - layout.shadow_offset
        if 0 <= rel < layout.shadow_region_size:
            return self.shadow_load(rel >> layout.ctx_shift,
                                    rel & layout.argument_mask,
                                    issuer, kernel, when)
        page = offset >> PAGE_SHIFT
        if 0 <= page < layout.n_contexts:
            return self.context_load(page, offset & PAGE_MASK,
                                     issuer, kernel, when)
        reg = offset & PAGE_MASK
        if page == layout.key_page_offset >> PAGE_SHIFT:
            return self._key_read(reg, ctx)
        if page == layout.control_page_offset >> PAGE_SHIFT:
            return self._control_read(reg, ctx)
        raise DeviceError(f"{self.name}: read of unmapped offset {offset:#x}")

    def mmio_exchange(self, offset: int, value: int,
                      ctx: AccessContext) -> int:
        """Atomic read-modify-write access (SHRIMP-1's initiation, §2.4)."""
        shadow = self.layout.decode_offset(offset)
        if shadow is None:
            raise DeviceError(
                f"{self.name}: atomic exchange outside shadow region "
                f"at offset {offset:#x}")
        issuer, kernel, when = ctx
        return self.shadow_exchange(shadow.ctx_id, shadow.paddr, value,
                                    issuer, kernel, when)

    # ------------------------------------------------------------------
    # Decoded entry points (the MMIO decoder's targets; the checker's
    # harness calls them straight from its access specs).  Each takes
    # the access's issuer, kernel flag and bus-delivery time as plain
    # arguments, so no AccessContext is built to carry them.
    # ------------------------------------------------------------------

    def shadow_store(self, ctx_id: int, paddr: int, value: int,
                     issuer: Optional[int], kernel: bool,
                     when: Time) -> None:
        """A store to ``shadow(paddr)`` carrying CONTEXT_ID *ctx_id*."""
        access = ShadowAccess("store", ctx_id, paddr, value, issuer,
                              kernel, when)
        if self.spans.enabled:
            sp = self._access_span("dma.shadow_store", issuer,
                                   ctx_id=ctx_id, paddr=paddr, data=value)
            self.protocol.on_shadow_store(access)
            self.spans.end(sp, state_to=self.protocol.state_label())
        else:
            self.protocol.on_shadow_store(access)

    def shadow_load(self, ctx_id: int, paddr: int, issuer: Optional[int],
                    kernel: bool, when: Time) -> int:
        """A load from ``shadow(paddr)``; returns the status word."""
        access = ShadowAccess("load", ctx_id, paddr, 0, issuer, kernel,
                              when)
        if self.spans.enabled:
            sp = self._access_span("dma.shadow_load", issuer,
                                   ctx_id=ctx_id, paddr=paddr)
            status = self.protocol.on_shadow_load(access)
            self.spans.end(sp, state_to=self.protocol.state_label(),
                           status=status)
            return status
        return self.protocol.on_shadow_load(access)

    def shadow_exchange(self, ctx_id: int, paddr: int, value: int,
                        issuer: Optional[int], kernel: bool,
                        when: Time) -> int:
        """An atomic exchange on ``shadow(paddr)``; returns the status."""
        access = ShadowAccess("exchange", ctx_id, paddr, value, issuer,
                              kernel, when)
        if self.spans.enabled:
            sp = self._access_span("dma.shadow_exchange", issuer,
                                   ctx_id=ctx_id, paddr=paddr, data=value)
            status = self.protocol.on_shadow_exchange(access)
            self.spans.end(sp, state_to=self.protocol.state_label(),
                           status=status)
            return status
        return self.protocol.on_shadow_exchange(access)

    def context_store(self, ctx_index: int, reg: int, value: int,
                      issuer: Optional[int], kernel: bool,
                      when: Time) -> None:
        """A store to register *reg* of context page *ctx_index*."""
        context = self.contexts[ctx_index]
        if self._undo is not None:
            self.capture_context(context)
        access = ShadowAccess("store", ctx_index, 0, value, issuer, kernel,
                              when)
        if self.spans.enabled:
            sp = self._access_span("dma.context_store", issuer,
                                   ctx_id=ctx_index, data=value)
            self.protocol.on_context_store(context, reg, value, access)
            self.spans.end(sp, state_to=self.protocol.state_label())
        else:
            self.protocol.on_context_store(context, reg, value, access)

    def context_load(self, ctx_index: int, reg: int, issuer: Optional[int],
                     kernel: bool, when: Time) -> int:
        """A load from register *reg* of context page *ctx_index*."""
        context = self.contexts[ctx_index]
        if self._undo is not None:
            self.capture_context(context)
        access = ShadowAccess("load", ctx_index, 0, 0, issuer, kernel, when)
        if self.spans.enabled:
            sp = self._access_span("dma.context_load", issuer,
                                   ctx_id=ctx_index)
            status = self.protocol.on_context_load(context, reg, access)
            self.spans.end(sp, state_to=self.protocol.state_label(),
                           status=status)
            return status
        return self.protocol.on_context_load(context, reg, access)

    def _access_span(self, name: str, issuer: Optional[int],
                     **attrs) -> Span:
        """Open a recognizer span for one MMIO access by *issuer*.

        The recognizer state *before* the protocol callback is recorded
        at begin time; callers add ``state_to`` when ending the span, so
        every span shows the FSM transition the access caused.
        """
        track = f"proc{issuer}" if issuer is not None else self.name
        return self.spans.begin(
            name, track=track, protocol=self.protocol.name,
            state_from=self.protocol.state_label(), **attrs)

    # ------------------------------------------------------------------
    # Start logic (shared by every protocol and the kernel path)
    # ------------------------------------------------------------------

    def try_start(self, psrc: int, pdst: int, size: int,
                  ctx: Optional[RegisterContext] = None,
                  issuer: Optional[int] = None,
                  via: Optional[str] = None) -> int:
        """Validate and, if legal, start a transfer.

        Returns the status word software sees: bytes remaining (== size at
        start time) on success, ``STATUS_FAILURE`` otherwise.
        """
        journal = self._undo
        via_name = via if via is not None else self.protocol.name
        ok = (size > 0
              and self._valid_source(psrc, size)
              and self._valid_endpoint(pdst, size))
        if ok and self.page_bounded and via_name != "kernel":
            if (page_base(psrc) != page_base(psrc + size - 1)
                    or page_base(pdst) != page_base(pdst + size - 1)):
                self.oversize_rejections += 1
                ok = False
        if journal is not None:
            journal.record_append(self.initiations)
        if len(self._init_fp) > len(self.initiations):
            # An undo truncated the records below the cached prefix; the
            # new record replaces a cached slot, so cut the cache first.
            self._init_fp = self._init_fp[:len(self.initiations)]
        self.initiations.append(InitiationRecord(
            self.sim.now, psrc, pdst, size, issuer, via_name,
            ctx.ctx_id if ctx is not None else None, ok))
        if ctx is not None and journal is not None:
            self.capture_context(ctx)
        if not ok:
            if ctx is not None:
                ctx.failed = True
            self.spans.instant("dma.rejected", track="engine",
                               psrc=psrc, pdst=pdst, size=size,
                               via=via_name, outcome="rejected")
            return STATUS_FAILURE
        self.transfer_engine.last_via = via_name
        transfer = self.transfer_engine.start(psrc, pdst, size)
        if ctx is not None:
            ctx.transfer = transfer
            ctx.failed = False
            ctx.initiations += 1
        return transfer.remaining(self.sim.now)

    def started_transfers(self) -> List[InitiationRecord]:
        """All successful initiations still recorded, in order."""
        return [r for r in self.initiations if r.ok]

    @property
    def initiation_count(self) -> int:
        """Initiations that reached the start logic, dropped ones too."""
        return self.initiations_dropped + len(self.initiations)

    def drop_records(self) -> None:
        """Fold the initiation and transfer records into counts.

        A machine that runs indefinitely (a service shard) calls this
        between operations, with nothing in flight, so its memory does
        not grow with the work it has done; :attr:`initiation_count`
        and the transfer engine's counters (``transfers_started`` counts
        the successful initiations) still include what was dropped.  A
        checker harness never drops: its undo journal and fingerprints
        read the records.
        """
        self.initiations_dropped += len(self.initiations)
        self.initiations.clear()
        self._init_fp = ()
        self.transfer_engine.drop_records()

    def _valid_endpoint(self, paddr: int, size: int) -> bool:
        """Whether [paddr, paddr+size) is a legal transfer destination.

        The base engine accepts only local RAM; the NIC subclass also
        accepts remote global addresses.
        """
        return self.ram.contains(paddr, size)

    def _valid_source(self, paddr: int, size: int) -> bool:
        """Whether [paddr, paddr+size) is a legal transfer source.

        Sources must always be memory this engine can read — local RAM
        (the NIC subclass additionally requires the node bits to name
        *this* node).
        """
        return self._valid_endpoint(paddr, size)

    def _move_bytes(self, psrc: int, pdst: int, size: int) -> None:
        """Default mover: a local RAM copy."""
        self.ram.copy(psrc, pdst, size)

    # ------------------------------------------------------------------
    # Privileged pages
    # ------------------------------------------------------------------

    def _key_write(self, reg: int, value: int, ctx: AccessContext) -> None:
        if not ctx.kernel:
            self.protocol_violations += 1
            return
        ctx_id = reg // 8
        if 0 <= ctx_id < len(self.contexts):
            self._j_table(self.key_table, ctx_id)
            self.key_table[ctx_id] = value

    def _key_read(self, reg: int, ctx: AccessContext) -> int:
        if not ctx.kernel:
            self.protocol_violations += 1
            return STATUS_FAILURE
        return self.key_table.get(reg // 8, 0)

    def _control_write(self, reg: int, value: int,
                       ctx: AccessContext) -> None:
        if not ctx.kernel:
            self.protocol_violations += 1
            return
        if reg == REG_SOURCE:
            self._control_src = value
        elif reg == REG_DESTINATION:
            self._control_dst = value
        elif reg == REG_SIZE:
            # Fig. 1: writing SIZE starts the kernel-level DMA.
            status = self.try_start(self._control_src, self._control_dst,
                                    value, issuer=ctx.issuer, via="kernel")
            self._control_status = status
            self._control_transfer = (
                self.transfer_engine.history[-1]
                if status != STATUS_FAILURE else None)
        elif reg == REG_CURRENT_PID:
            self.current_pid = value
            self.protocol.on_context_switch(value)
        elif reg == REG_ABORT:
            self.protocol.on_abort_pending()
        elif reg == REG_MAPOUT_SRC:
            self._mapout_src_latch = value
        elif reg == REG_MAPOUT_DST:
            if self._mapout_src_latch is None:
                raise DeviceError(
                    f"{self.name}: MAPOUT_DST written with no source latched")
            self._j_table(self.mapout_table, page_base(self._mapout_src_latch))
            self.mapout_table[page_base(self._mapout_src_latch)] = value
            self._mapout_src_latch = None
        else:
            raise DeviceError(
                f"{self.name}: write to unknown control register {reg:#x}")

    def _control_read(self, reg: int, ctx: AccessContext) -> int:
        if not ctx.kernel:
            self.protocol_violations += 1
            return STATUS_FAILURE
        if reg == REG_STATUS:
            if self._control_transfer is not None:
                return self._control_transfer.remaining(ctx.when)
            return self._control_status
        if reg == REG_SOURCE:
            return self._control_src
        if reg == REG_DESTINATION:
            return self._control_dst
        if reg == REG_CURRENT_PID:
            return self.current_pid & ((1 << 64) - 1)
        raise DeviceError(
            f"{self.name}: read of unknown control register {reg:#x}")

    # ------------------------------------------------------------------
    # Administration (OS boot/setup paths; not on any timed fast path)
    # ------------------------------------------------------------------

    def install_key(self, ctx_id: int, key: int) -> None:
        """Install the protection key for context *ctx_id* (OS setup)."""
        self._check_ctx_id(ctx_id)
        self._j_table(self.key_table, ctx_id)
        self.key_table[ctx_id] = key

    def assign_context(self, ctx_id: int, pid: int) -> RegisterContext:
        """Record OS assignment of a context to a process, resetting it."""
        self._check_ctx_id(ctx_id)
        context = self.contexts[ctx_id]
        if self._undo is not None:
            self.capture_context(context)
        context.reset()
        context.owner_pid = pid
        return context

    def release_context(self, ctx_id: int) -> None:
        """OS released a context: scrub state, key, and ownership."""
        self._check_ctx_id(ctx_id)
        context = self.contexts[ctx_id]
        if self._undo is not None:
            self.capture_context(context)
        context.reset()
        context.owner_pid = None
        self._j_table(self.key_table, ctx_id)
        self.key_table.pop(ctx_id, None)

    def install_mapout(self, psrc_page: int, pdst: int) -> None:
        """Install a SHRIMP-1 mapped-out entry (OS setup path)."""
        self._j_table(self.mapout_table, page_base(psrc_page))
        self.mapout_table[page_base(psrc_page)] = pdst

    def mapout_destination(self, psrc: int) -> Optional[int]:
        """The mapped-out destination for *psrc*, or None."""
        base = self.mapout_table.get(page_base(psrc))
        if base is None:
            return None
        return base + page_offset(psrc)

    def fingerprint(self) -> tuple:
        """Hashable capture of all behaviour-determining engine state.

        Two engine states with equal fingerprints (plus equal simulator,
        RAM, and delivered-access positions) behave identically on every
        future access — the transposition table's merging criterion.
        """
        control_transfer = self._control_transfer
        control_value = (None if control_transfer is None else
                         (control_transfer.psrc, control_transfer.pdst,
                          control_transfer.size, control_transfer.started_at,
                          control_transfer.duration,
                          control_transfer.completed))
        tables = self._tables_fp
        if tables is None:
            tables = (tuple(sorted(self.key_table.items())),
                      tuple(sorted(self.mapout_table.items())))
            self._tables_fp = tables
        cached = self._init_fp
        n = len(self.initiations)
        if len(cached) != n:
            # Initiations only append or truncate (undo), so the value
            # tuple is cached as a length-keyed prefix; the append site
            # cuts the cache back when an undo shrank the list first.
            if len(cached) > n:
                cached = cached[:n]
            else:
                cached = cached + tuple(self.initiations[len(cached):])
            self._init_fp = cached
        if self._undo is None:
            # The contexts' cache is kept only under a journal: an
            # unjournaled engine mutates contexts without capturing them.
            contexts = tuple(c.fingerprint() for c in self.contexts)
        else:
            contexts = self._ctx_fp
            if (contexts is None
                    or self._ctx_fp_flips != self.transfer_engine.flips):
                contexts = self._ctx_fp = self._contexts_fingerprint()
        return (
            contexts,
            tables[0],
            tables[1],
            self.current_pid,
            cached,
            self.protocol_violations,
            self.oversize_rejections,
            (self._control_src, self._control_dst, self._control_status,
             control_value, self._mapout_src_latch),
            self.protocol.state_fingerprint(),
            self.transfer_engine.fingerprint(),
        )

    def _contexts_fingerprint(self) -> tuple:
        """Rebuild the contexts' part of :meth:`fingerprint`.

        Only the contexts captured or undone since the last build are
        recomputed.  A context's value includes its transfer's
        ``completed`` flag, which the transfer engine flips without a
        context capture, so after a flip every context is.
        """
        fps = self._ctx_fps
        flips = self.transfer_engine.flips
        if self._ctx_fp_flips != flips:
            self._ctx_fp_flips = flips
            fps[:] = [c.fingerprint() for c in self.contexts]
        else:
            for ctx_id, fp in enumerate(fps):
                if fp is None:
                    fps[ctx_id] = self.contexts[ctx_id].fingerprint()
        return tuple(fps)

    def reset(self) -> None:
        """Power-on reset: contexts, tables, protocol state, records.

        Raises:
            ConfigError: while a journal is bound: a checker harness
                resets by building a new stack, so undo does not cover
                a reset.
        """
        if self._undo is not None:
            raise ConfigError(
                f"{self.name}: a journaled engine cannot be reset")
        for context in self.contexts:
            context.reset()
            context.owner_pid = None
        self.key_table.clear()
        self.mapout_table.clear()
        self._tables_fp = None
        self.current_pid = -1
        # The records go; their count stays, like the transfer engine's
        # transfers_started and bytes_moved, which a reset keeps.
        self.initiations_dropped += len(self.initiations)
        self.initiations.clear()
        self._init_fp = ()
        self.protocol_violations = 0
        self.oversize_rejections = 0
        self._control_src = 0
        self._control_dst = 0
        self._control_status = 0
        self._control_transfer = None
        self._mapout_src_latch = None
        self.protocol.reset()

    # ------------------------------------------------------------------

    def _check_ctx_id(self, ctx_id: int) -> None:
        if not 0 <= ctx_id < len(self.contexts):
            raise ConfigError(
                f"context id {ctx_id} out of range "
                f"[0, {len(self.contexts)})")
