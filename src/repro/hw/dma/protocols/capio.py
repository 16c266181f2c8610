"""Capability-checked DMA initiation (CAPIO-style kernel bypass).

The kernel mints one **capability** per DMA buffer: an identifier plus
(base, limit, rights) and an unforgeable secret nonce, bound to the
register context (and process) it was minted for.  Address arguments
travel in shadow stores whose data word is a capability *token* — the
capability id, the epoch it was minted under, and the nonce — while the
shadow address bits carry the byte **offset** into the capability's
buffer.  The engine validates every token against its capability table:
unknown id, wrong nonce, stale epoch, out-of-bounds offset, or missing
rights all drop the argument silently (the keyed method's "attacker
learns nothing" contract).  The size is a plain store to the context
page, and a load from the context page re-validates both capabilities
(epoch and bounds, now including the size) before starting the DMA —
so a revocation between argument passing and start still wins.

Token word layout (64 bits)::

    63                 11 10      7 6        1  0
    +--------------------+---------+----------+---+
    |   nonce (53 bits)  | epoch(4)| cap_id(6)|arg|
    +--------------------+---------+----------+---+

Revocation is **by epoch**: the kernel bumps the capability's epoch and
every token minted earlier stops validating.  Construct with
``epoch_check=False`` for the deliberately-weakened variant
(``capio_noepoch``) where stale tokens keep working after revocation —
the synthesis hunt must rediscover that as UNSAFE.

Setup ops (kernel-side, untimed — see :class:`~repro.hw.dma.recognizer.
SetupOp`):

* ``("cap-mint", (cap_id, owner_ctx, owner_pid, base, limit,
  readable, writable, nonce))``
* ``("cap-revoke", (cap_id,))``

For verification bookkeeping the protocol records, per started DMA, the
pids whose accesses assembled it (``completed_contributors``) and the
pid the capabilities were minted for (``completed_authority``) — the
single-issuer property attributes capability-bearing completions to the
minting process, never to influence a protocol decision.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ....errors import ConfigError
from ..contexts import RegisterContext
from ..recognizer import (
    InitiationProtocol,
    SetupOp,
    ShadowAccess,
    without_key,
)
from ..status import STATUS_FAILURE
from .keyed import ARG_DESTINATION, ARG_SOURCE

_CAP_SHIFT = 1
_CAP_BITS = 6
_EPOCH_SHIFT = _CAP_SHIFT + _CAP_BITS
_EPOCH_BITS = 4
_NONCE_SHIFT = _EPOCH_SHIFT + _EPOCH_BITS
_CAP_MASK = (1 << _CAP_BITS) - 1
_EPOCH_MASK = (1 << _EPOCH_BITS) - 1
NONCE_FIELD_BITS = 64 - _NONCE_SHIFT


def pack_cap_word(cap_id: int, epoch: int, nonce: int, arg: int) -> int:
    """Build a capability token word for a shadow store.

    Raises:
        ConfigError: if any field overflows its width.
    """
    if not 0 <= cap_id <= _CAP_MASK:
        raise ConfigError(f"cap_id {cap_id} overflows {_CAP_BITS} bits")
    if epoch < 0:
        raise ConfigError(f"epoch {epoch} must be non-negative")
    if not 0 <= nonce < (1 << NONCE_FIELD_BITS):
        raise ConfigError(
            f"nonce {nonce:#x} overflows {NONCE_FIELD_BITS} bits")
    if arg not in (ARG_DESTINATION, ARG_SOURCE):
        raise ConfigError(f"arg selector must be 0 or 1, got {arg}")
    return ((nonce << _NONCE_SHIFT)
            | ((epoch & _EPOCH_MASK) << _EPOCH_SHIFT)
            | (cap_id << _CAP_SHIFT) | arg)


def unpack_cap_word(word: int) -> Tuple[int, int, int, int]:
    """Split a token word into (cap_id, epoch, nonce, arg)."""
    return ((word >> _CAP_SHIFT) & _CAP_MASK,
            (word >> _EPOCH_SHIFT) & _EPOCH_MASK,
            word >> _NONCE_SHIFT,
            word & 1)


@dataclass(frozen=True)
class Capability:
    """One capability-table entry.

    Attributes:
        base: physical base of the buffer the capability covers.
        limit: buffer length in bytes (valid offsets are [0, limit)).
        readable / writable: what DMA may do through this capability.
        epoch: current epoch; tokens carrying an older epoch are stale.
        nonce: the unforgeable secret embedded in valid tokens.
        owner_ctx: register context arguments latch into — a token can
            never steer another process's context.
        owner_pid: the process the kernel minted the capability for
            (verification bookkeeping only; never a protocol decision).
    """

    base: int
    limit: int
    readable: bool
    writable: bool
    epoch: int
    nonce: int
    owner_ctx: int
    owner_pid: Optional[int] = None


@dataclass(frozen=True)
class _ArgRef:
    """Provenance of one latched argument (for fire-time re-validation)."""

    cap_id: int
    epoch: int
    offset: int
    issuer: Optional[int]


class CapioProtocol(InitiationProtocol):
    """The capability-checked register-context method."""

    def __init__(self, epoch_check: bool = True) -> None:
        super().__init__()
        self.name = "capio" if epoch_check else "capio_noepoch"
        self.epoch_check = epoch_check
        self.cap_rejections = 0
        # The three tables are replaced on every write, never mutated in
        # place, so snapshots hold them by reference and the fingerprint
        # cache can key on their identity.
        self._caps: Dict[int, Capability] = {}
        # ctx_id -> {"src"/"dst": _ArgRef} for latched arguments.
        self._arg_refs: Dict[int, Dict[str, _ArgRef]] = {}
        self._size_issuers: Dict[int, Optional[int]] = {}
        #: Per started DMA: (src, dst, size, load) issuer pids.
        self.completed_contributors: List[Tuple[Optional[int], ...]] = []
        #: Per started DMA: the minting pid when both capabilities share
        #: one owner, else None.
        self.completed_authority: List[Optional[int]] = []
        # Fingerprint caches: the tables' part with the three dicts it
        # was built from (empty until built), and a length-keyed prefix
        # of the two logs.
        self._tables_fp: tuple = ()
        self._completed_fp: tuple = ()

    # -- token validation --------------------------------------------------

    def _validate(self, ref: _ArgRef, size: int,
                  write: bool) -> Optional[Capability]:
        """The capability *ref* currently authorizes [offset, offset+size).

        Returns the capability, or None (and counts a rejection at the
        caller).  Run at store time and again at fire time, so a
        revocation between argument passing and start still rejects.
        """
        entry = self._caps.get(ref.cap_id)
        if entry is None:
            return None
        if self.epoch_check and ref.epoch != (entry.epoch & _EPOCH_MASK):
            return None
        if not (entry.writable if write else entry.readable):
            return None
        if size <= 0 or not 0 <= ref.offset < entry.limit:
            return None
        if ref.offset + size > entry.limit:
            return None
        return entry

    # -- argument passing over shadow stores -------------------------------

    def on_shadow_store(self, access: ShadowAccess) -> None:
        cap_id, epoch, nonce, arg = unpack_cap_word(access.data)
        entry = self._caps.get(cap_id)
        if entry is None or nonce != entry.nonce:
            # Unknown capability or forged nonce: silently dropped; the
            # attacker learns nothing (stores have no return path).
            self.cap_rejections += 1
            return
        ref = _ArgRef(cap_id=cap_id, epoch=epoch, offset=access.paddr,
                      issuer=access.issuer)
        if self._validate(ref, size=1, write=(arg == ARG_DESTINATION)) is None:
            self.cap_rejections += 1
            return
        engine = self.engine
        context = engine.contexts[entry.owner_ctx]
        if engine._undo is not None:
            engine.capture_context(context)
        phys = entry.base + ref.offset
        refs = dict(self._arg_refs.get(entry.owner_ctx, ()))
        if arg == ARG_SOURCE:
            context.src = phys
            refs["src"] = ref
        else:
            context.dst = phys
            refs["dst"] = ref
        self._arg_refs = {**self._arg_refs, entry.owner_ctx: refs}
        context.failed = False

    def on_shadow_load(self, access: ShadowAccess) -> int:
        # Loads from the shadow region play no role in this method.
        return STATUS_FAILURE

    # -- the register-context page -----------------------------------------

    def on_context_store(self, ctx: RegisterContext, offset: int,
                         value: int, access: ShadowAccess) -> None:
        ctx.size = value
        ctx.failed = False
        self._size_issuers = {**self._size_issuers,
                              ctx.ctx_id: access.issuer}

    def on_context_load(self, ctx: RegisterContext, offset: int,
                        access: ShadowAccess) -> int:
        if ctx.args_complete:
            assert ctx.src is not None and ctx.dst is not None
            assert ctx.size is not None
            refs = self._arg_refs.get(ctx.ctx_id, {})
            src_ref = refs.get("src")
            dst_ref = refs.get("dst")
            src_cap = (None if src_ref is None else
                       self._validate(src_ref, ctx.size, write=False))
            dst_cap = (None if dst_ref is None else
                       self._validate(dst_ref, ctx.size, write=True))
            if src_cap is None or dst_cap is None or src_ref is None \
                    or dst_ref is None:
                # A capability expired (or the size outgrew its limit)
                # between argument passing and the start: abort with
                # nothing moved.
                self.cap_rejections += 1
                self._clear(ctx)
                ctx.failed = True
                return STATUS_FAILURE
            authority = None
            if (src_cap.owner_pid is not None
                    and src_cap.owner_pid == dst_cap.owner_pid):
                authority = src_cap.owner_pid
            contributors = (src_ref.issuer, dst_ref.issuer,
                            self._size_issuers.get(ctx.ctx_id),
                            access.issuer)
            status = self.engine.try_start(
                psrc=src_cap.base + src_ref.offset,
                pdst=dst_cap.base + dst_ref.offset,
                size=ctx.size, ctx=ctx, issuer=access.issuer)
            self.completed_contributors.append(contributors)
            self.completed_authority.append(authority)
            self._clear(ctx)
            return status
        if ctx.transfer is not None or ctx.failed:
            # Polling path: bytes remaining (-1 on failure).
            return ctx.status_word(access.when)
        # Nothing latched and nothing ever ran (e.g. every token was
        # rejected): report failure, not completion.
        return STATUS_FAILURE

    def _clear(self, ctx: RegisterContext) -> None:
        ctx.clear_args()
        self._arg_refs = without_key(self._arg_refs, ctx.ctx_id)
        self._size_issuers = without_key(self._size_issuers, ctx.ctx_id)

    # -- kernel-managed setup ----------------------------------------------

    def apply_setup(self, op: SetupOp) -> None:
        if op.kind == "cap-mint":
            (cap_id, owner_ctx, owner_pid, base, limit,
             readable, writable, nonce) = op.args
            if not 0 <= cap_id <= _CAP_MASK:
                raise ConfigError(
                    f"cap_id {cap_id} overflows {_CAP_BITS} bits")
            self._caps = {**self._caps, cap_id: Capability(
                base=base, limit=limit, readable=readable,
                writable=writable, epoch=0, nonce=nonce,
                owner_ctx=owner_ctx, owner_pid=owner_pid)}
        elif op.kind == "cap-revoke":
            (cap_id,) = op.args
            entry = self._caps.get(cap_id)
            if entry is not None:
                self._caps = {**self._caps,
                              cap_id: replace(entry, epoch=entry.epoch + 1)}
        else:
            raise ConfigError(
                f"protocol {self.name} accepts no setup op {op.kind!r}")

    def capability(self, cap_id: int) -> Optional[Capability]:
        """The current table entry for *cap_id* (kernel bookkeeping)."""
        return self._caps.get(cap_id)

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        self.cap_rejections = 0
        self._caps = {}
        self._arg_refs = {}
        self._size_issuers = {}
        self.completed_contributors = []
        self.completed_authority = []
        self._tables_fp = ()
        self._completed_fp = ()

    def state_label(self) -> str:
        """Which contexts hold capability-latched arguments."""
        parts = []
        for ctx_id in sorted(self._arg_refs):
            refs = self._arg_refs[ctx_id]
            parts.append(f"ctx{ctx_id}:"
                         + ("S" if "src" in refs else "-")
                         + ("D" if "dst" in refs else "-"))
        return " ".join(parts) if parts else "idle"

    # -- snapshot/restore --------------------------------------------------

    def snapshot_state(self):
        # The tables are replaced on write, so the blob holds references;
        # the completion logs are append-only and captured as lengths.
        return (self._caps, self._arg_refs, self._size_issuers,
                len(self.completed_contributors), self.cap_rejections)

    def restore_state(self, state) -> None:
        (self._caps, self._arg_refs, self._size_issuers, n_completed,
         self.cap_rejections) = state
        del self.completed_contributors[n_completed:]
        del self.completed_authority[n_completed:]
        if len(self._completed_fp) > n_completed:
            # The cache held entries the undo just removed.
            self._completed_fp = self._completed_fp[:n_completed]

    def state_fingerprint(self):
        # The completion logs feed the single-issuer property at every
        # leaf, so their *content* (not just length) must match for two
        # states to share a subtree.
        caps, arg_refs, sizes = self._caps, self._arg_refs, self._size_issuers
        tables = self._tables_fp
        if (not tables or tables[0] is not caps
                or tables[1] is not arg_refs or tables[2] is not sizes):
            tables = self._tables_fp = (caps, arg_refs, sizes, (
                tuple(sorted((cap_id, _cap_value(cap))
                             for cap_id, cap in caps.items())),
                tuple(sorted(
                    (ctx_id, tuple(sorted(
                        (arg, (ref.cap_id, ref.epoch, ref.offset,
                               ref.issuer))
                        for arg, ref in refs.items())))
                    for ctx_id, refs in arg_refs.items())),
                tuple(sorted(sizes.items()))))
        completed = self._completed_fp
        n = len(completed)
        if n != len(self.completed_contributors):
            completed = self._completed_fp = completed + tuple(zip(
                self.completed_contributors[n:],
                self.completed_authority[n:]))
        return tables[3], completed


def _cap_value(cap: Capability) -> tuple:
    """A capability as a plain value tuple (hashed in C, unlike the
    dataclass's generated ``__hash__``)."""
    return (cap.base, cap.limit, cap.readable, cap.writable, cap.epoch,
            cap.nonce, cap.owner_ctx, cap.owner_pid)
