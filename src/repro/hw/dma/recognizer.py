"""Initiation-protocol plug-in interface.

The DMA engine forwards every access it receives to the active
:class:`InitiationProtocol`.  A protocol sees:

* **shadow accesses** — loads/stores/atomic-exchanges whose decoded
  :class:`ShadowAccess` carries the argument physical address, the
  CONTEXT_ID from the address bits (0 under plain shadow encoding), and
  the raw data word;
* **register-context accesses** — loads/stores to a context page (§3.1:
  stores land on the size register, loads return the status word);
* **control events** — the privileged hook register writes that model the
  SHRIMP-2 ("abort pending on context switch") and FLASH ("tell the engine
  who runs now") kernel modifications.

Hard rule, enforced by the verification suite: a protocol may read
``access.issuer`` **only for tracing** — never to make a protocol
decision.  The engine cannot know the issuing process in real hardware;
that is the entire problem the paper solves.  (The FLASH baseline learns
the process identity only through its explicit current-pid register, which
is exactly the kernel modification it requires.)
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Optional, Tuple

from ...errors import ConfigError
from ...units import Time
from .status import STATUS_FAILURE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .contexts import RegisterContext
    from .engine import DmaEngine


class ShadowAccess(NamedTuple):
    """One decoded access to the shadow region.

    Built once per engine access, so it is a NamedTuple: immutable,
    hashable and cheap to build.

    Attributes:
        op: "load", "store", or "exchange".
        ctx_id: CONTEXT_ID bits carried in the shadow address.
        paddr: the decoded argument physical address.
        data: the store/exchange data word (0 for loads).
        issuer: issuing process id — tracing/verification only.
        kernel: whether issued from kernel mode.
        when: delivery timestamp.
    """

    op: str
    ctx_id: int
    paddr: int
    data: int
    issuer: Optional[int]
    kernel: bool
    when: Time


@dataclass(frozen=True)
class SetupOp:
    """One privileged (kernel-side) protocol configuration operation.

    Methods whose protection state lives device-side — IOMMU page-table
    entries, capability-table entries — receive it through these ops
    rather than through MMIO accesses: the kernel performs them on an
    untimed setup path, exactly like :meth:`~repro.hw.dma.engine.
    DmaEngine.install_key` for the keyed method.  The verification
    harness replays a scenario's setup ops after every reset, so they
    describe the world *before* the racing streams run.

    Attributes:
        kind: operation name; each protocol documents the kinds it
            accepts (e.g. ``iommu-map``, ``cap-mint``).
        args: kind-specific positional arguments (hashable values only,
            so scenarios stay usable as fixture data).
    """

    kind: str
    args: Tuple = ()


def without_key(table: dict, key: Any) -> dict:
    """*table* minus *key*, as a new dict (*table* itself if absent).

    For protocol state that is replaced on write instead of mutated, so
    a journal snapshot can hold it by reference.
    """
    if key not in table:
        return table
    table = dict(table)
    del table[key]
    return table


def _unattached() -> None:
    """The engine reference of a protocol no engine has attached."""
    return None


class InitiationProtocol(ABC):
    """Base class for the per-method DMA-initiation state machines."""

    #: Method name, e.g. "keyed"; set by subclasses.
    name: str = "abstract"

    def __init__(self) -> None:
        self._engine: Callable[[], Optional["DmaEngine"]] = _unattached

    # -- wiring -----------------------------------------------------------------

    def attach(self, engine: "DmaEngine") -> None:
        """Bind this protocol to its engine.  Called by the engine.

        The engine owns its protocol, so the protocol refers back to it
        weakly: a strong reference both ways would be a cycle that only
        the cyclic garbage collector frees.
        """
        self._engine = weakref.ref(engine)
        self.reset()

    @property
    def engine(self) -> "DmaEngine":
        """The owning engine (raises if unattached)."""
        engine = self._engine()
        if engine is None:
            raise RuntimeError(f"protocol {self.name} is not attached")
        return engine

    # -- the shadow region --------------------------------------------------------

    @abstractmethod
    def on_shadow_store(self, access: ShadowAccess) -> None:
        """Handle a store to a shadow address."""

    @abstractmethod
    def on_shadow_load(self, access: ShadowAccess) -> int:
        """Handle a load from a shadow address; return the status word."""

    def on_shadow_exchange(self, access: ShadowAccess) -> int:
        """Handle an atomic exchange to a shadow address.

        Only SHRIMP-1 uses these; everyone else reports failure.
        """
        return STATUS_FAILURE

    # -- register-context pages ------------------------------------------------------

    def on_context_store(self, ctx: "RegisterContext", offset: int,
                         value: int, access: ShadowAccess) -> None:
        """A store to a context page.  Default (§3.1): set the size."""
        ctx.size = value
        ctx.failed = False

    def on_context_load(self, ctx: "RegisterContext", offset: int,
                        access: ShadowAccess) -> int:
        """A load from a context page.  Default (§3.1): the status word."""
        return ctx.status_word(access.when)

    # -- privileged setup (kernel-managed protocol configuration) ----------------------

    def apply_setup(self, op: "SetupOp") -> None:
        """Apply one kernel-side configuration operation.

        Only protocols with device-side protection state (IOMMU tables,
        capability tables) accept setup ops; everyone else rejects them
        loudly so a scenario cannot silently misconfigure a method.
        """
        raise ConfigError(
            f"protocol {self.name} accepts no setup op {op.kind!r}")

    # -- privileged hooks (the kernel modifications our methods avoid) -----------------

    def on_context_switch(self, new_pid: int) -> None:
        """FLASH hook: the kernel announced the running process."""

    def on_abort_pending(self) -> None:
        """SHRIMP-2 hook: the kernel invalidated half-started initiations."""

    # -- lifecycle ----------------------------------------------------------------------

    @abstractmethod
    def reset(self) -> None:
        """Return to power-on state (also called on attach)."""

    # -- observability ------------------------------------------------------------------

    def state_label(self) -> str:
        """A short human-readable label of the recognizer's FSM state.

        Used only by the span layer to annotate shadow-access spans with
        the state transition they caused (``state_from`` / ``state_to``)
        — never by any protocol decision.  The default names the class;
        protocols with interesting state override it.
        """
        return type(self).__name__

    # -- snapshot/restore ---------------------------------------------------------------

    @abstractmethod
    def snapshot_state(self) -> Any:
        """Capture the FSM's mutable state for later :meth:`restore_state`.

        The engine records it into the undo journal once per epoch, so
        it must be cheap: a small hand-rolled tuple, not a deep copy.
        """

    @abstractmethod
    def restore_state(self, state: Any) -> None:
        """Return to a state captured by :meth:`snapshot_state`."""

    @abstractmethod
    def state_fingerprint(self) -> Any:
        """Hashable capture of the state that determines future behaviour.

        Used by the transposition table to merge converged states: two
        prefixes whose fingerprints (and other component fingerprints)
        match have identical subtrees.  Pure statistics counters that no
        decision or property ever reads may be left out.
        """
