"""Key-based user-level DMA (§3.1, Fig. 3).

Each process that may start user-level DMAs owns one register context and
a secret key, both handed out by the OS.  Address arguments travel in
shadow **stores** whose data word carries ``key # context_id``; the engine
accepts the argument into the named context only when the key matches the
one the OS installed in the (user-unreadable) key table.  The size is a
plain store to the context page, and a load from the context page starts
the DMA and returns the status.

Data-word layout (the paper: "close to 60 bits available for the key
field" on 64-bit machines)::

    63                    4  3     1  0
    +----------------------+--------+---+
    |      key (60 bits)   | ctx(3) |arg|
    +----------------------+--------+---+

``arg`` selects which address register the store fills (0 = destination,
1 = source) so a retried or aborted sequence can never leave the context
expecting the "wrong next argument" — each store is self-describing.

Atomicity needs no kernel help: a preempted process's arguments sit in
*its own* context, where no other process's accesses can land (no other
process has the key, and the context page is mapped only in the owner).
"""

from __future__ import annotations

from typing import Tuple

from ....errors import ConfigError
from ..contexts import RegisterContext
from ..recognizer import InitiationProtocol, ShadowAccess
from ..status import STATUS_FAILURE

#: Destination-address argument selector.
ARG_DESTINATION = 0
#: Source-address argument selector.
ARG_SOURCE = 1

_CTX_SHIFT = 1
_CTX_BITS = 3
_KEY_SHIFT = _CTX_SHIFT + _CTX_BITS
_CTX_MASK = (1 << _CTX_BITS) - 1
KEY_FIELD_BITS = 64 - _KEY_SHIFT


def pack_key_word(key: int, ctx_id: int, arg: int) -> int:
    """Build the ``key#context_id`` data word for a shadow store.

    Raises:
        ConfigError: if any field overflows its width.
    """
    if not 0 <= key < (1 << KEY_FIELD_BITS):
        raise ConfigError(f"key {key:#x} overflows {KEY_FIELD_BITS} bits")
    if not 0 <= ctx_id <= _CTX_MASK:
        raise ConfigError(f"ctx_id {ctx_id} overflows {_CTX_BITS} bits")
    if arg not in (ARG_DESTINATION, ARG_SOURCE):
        raise ConfigError(f"arg selector must be 0 or 1, got {arg}")
    return (key << _KEY_SHIFT) | (ctx_id << _CTX_SHIFT) | arg


def unpack_key_word(word: int) -> Tuple[int, int, int]:
    """Split a data word into (key, ctx_id, arg)."""
    return (word >> _KEY_SHIFT,
            (word >> _CTX_SHIFT) & _CTX_MASK,
            word & 1)


class KeyedProtocol(InitiationProtocol):
    """The key-based register-context method."""

    name = "keyed"

    def __init__(self) -> None:
        super().__init__()
        self.key_rejections = 0

    # -- argument passing over shadow stores --------------------------------

    def on_shadow_store(self, access: ShadowAccess) -> None:
        key, ctx_id, arg = unpack_key_word(access.data)
        engine = self.engine
        contexts = engine.contexts
        if ctx_id >= len(contexts):
            self.key_rejections += 1
            return
        expected = engine.key_table.get(ctx_id, 0)
        if expected == 0 or key != expected:
            # Wrong or missing key: the argument is silently dropped; the
            # attacker learns nothing (stores have no return path).
            self.key_rejections += 1
            return
        context = contexts[ctx_id]
        if engine._undo is not None:
            engine.capture_context(context)
        if arg == ARG_SOURCE:
            context.src = access.paddr
        else:
            context.dst = access.paddr
        context.failed = False

    def on_shadow_load(self, access: ShadowAccess) -> int:
        # Loads from the shadow region play no role in this method.
        return STATUS_FAILURE

    # -- the register-context page ---------------------------------------------

    def on_context_store(self, ctx: RegisterContext, offset: int,
                         value: int, access: ShadowAccess) -> None:
        # §3.1: every store to the context page reaches the size register
        # only; source/destination are unreachable by regular stores.
        ctx.size = value
        ctx.failed = False

    def on_context_load(self, ctx: RegisterContext, offset: int,
                        access: ShadowAccess) -> int:
        if ctx.args_complete:
            # Fig. 3's final LOAD: fire the DMA and report the outcome.
            assert ctx.src is not None and ctx.dst is not None
            assert ctx.size is not None
            status = self.engine.try_start(
                psrc=ctx.src, pdst=ctx.dst, size=ctx.size,
                ctx=ctx, issuer=access.issuer)
            ctx.clear_args()
            return status
        if ctx.transfer is not None or ctx.failed:
            # Polling path: §3.1's "bytes that need to be transferred
            # yet" (-1 on failure, 0 once complete).
            return ctx.status_word(access.when)
        # Nothing latched and nothing ever ran: the initiation attempt
        # did not happen (e.g. the key was wrong and the address
        # arguments were dropped) — report failure, not completion.
        return STATUS_FAILURE

    def reset(self) -> None:
        self.key_rejections = 0

    def state_label(self) -> str:
        """Which contexts hold partially or fully latched arguments."""
        parts = []
        for ctx in self.engine.contexts:
            if ctx.src is None and ctx.dst is None and ctx.size is None:
                continue
            parts.append(f"ctx{ctx.ctx_id}:"
                         + ("S" if ctx.src is not None else "-")
                         + ("D" if ctx.dst is not None else "-")
                         + ("Z" if ctx.size is not None else "-"))
        return " ".join(parts) if parts else "idle"

    def snapshot_state(self):
        # All decision state lives in the engine's register contexts and
        # key table, both captured by the engine's own snapshot.
        return self.key_rejections

    def restore_state(self, state) -> None:
        self.key_rejections = state

    def state_fingerprint(self):
        return ()
