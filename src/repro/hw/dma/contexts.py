"""DMA register contexts (§3.1).

"The DMA engine is equipped with several (say 4 to 8) register contexts.
Each context has a source register, a destination register, and a size
register [...] Distinct contexts are mapped into distinct memory pages so
that each process gets access rights for only a single context."

A context accumulates the arguments of one process's in-flight initiation
and tracks the status of its most recent transfer.  User software can only
reach the *size* register (any store to the context page lands there) and
the status readout (any load); the source/destination registers are filled
exclusively through shadow-address argument passing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ...units import Time
from .status import STATUS_ACK, STATUS_FAILURE
from .transfer import Transfer


@dataclass
class RegisterContext:
    """One register context inside the DMA engine.

    Attributes:
        ctx_id: index of this context.
        src: latched source physical address (None until passed).
        dst: latched destination physical address.
        size: latched transfer size in bytes (None until stored).
        owner_pid: the process the OS assigned this context to (privileged
            bookkeeping — the protocol FSMs never read it).
        transfer: the most recently started transfer, for status reads.
        failed: sticky failure from the last initiation attempt.
    """

    ctx_id: int
    src: Optional[int] = None
    dst: Optional[int] = None
    size: Optional[int] = None
    owner_pid: Optional[int] = None
    transfer: Optional[Transfer] = None
    failed: bool = False
    initiations: int = field(default=0)

    @property
    def args_complete(self) -> bool:
        """Whether source, destination, and size have all been passed."""
        return (self.src is not None and self.dst is not None
                and self.size is not None)

    def clear_args(self) -> None:
        """Drop latched arguments (after a start or a reassignment)."""
        self.src = None
        self.dst = None
        self.size = None

    def reset(self) -> None:
        """Full reset: arguments, status, and ownership bookkeeping."""
        self.clear_args()
        self.transfer = None
        self.failed = False

    def snapshot(self) -> tuple:
        """Capture all mutable fields (the transfer ref is captured as-is;
        its ``completed`` flag never changes under the checker's journal)."""
        return (self.src, self.dst, self.size, self.owner_pid,
                self.transfer, self.failed, self.initiations)

    def restore(self, token: tuple) -> None:
        """Return to a state captured by :meth:`snapshot`."""
        (self.src, self.dst, self.size, self.owner_pid,
         self.transfer, self.failed, self.initiations) = token

    def fingerprint(self) -> tuple:
        """Hashable value capture (the transfer by value, not identity)."""
        transfer = self.transfer
        transfer_value = (None if transfer is None else
                          (transfer.psrc, transfer.pdst, transfer.size,
                           transfer.started_at, transfer.duration,
                           transfer.completed))
        return (self.src, self.dst, self.size, self.owner_pid,
                transfer_value, self.failed, self.initiations)

    def status_word(self, now: Time) -> int:
        """The value a load from this context page returns (§3.1).

        -1 (all-ones) on failure, otherwise the bytes remaining in the
        current transfer (0 once complete, also 0 if nothing ever ran).
        """
        if self.failed:
            return STATUS_FAILURE
        if self.transfer is None:
            return STATUS_ACK
        return self.transfer.remaining(now)
