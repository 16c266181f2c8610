"""Exception hierarchy for the repro library.

Every error raised by the simulation substrate derives from
:class:`ReproError`, so callers can catch the whole family with one clause.
Hardware-visible faults (protection violations, bus errors) are modelled as
exceptions only when the *simulation* is misused; faults that the simulated
hardware reports to simulated software (e.g. a rejected DMA initiation) are
returned as status codes, exactly as the paper's hardware does.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A machine, device, or experiment was configured inconsistently."""


class SimulationError(ReproError):
    """The discrete-event engine was driven into an invalid state."""


class ClockError(SimulationError):
    """A clock-domain conversion was impossible (e.g. zero frequency)."""


class MemoryError_(ReproError):
    """Physical-memory misuse: out-of-range frame, exhausted memory, etc.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class AddressError(ReproError):
    """An address was malformed for the operation (alignment, range)."""


class PageFault(ReproError):
    """A virtual address had no valid translation.

    Attributes:
        vaddr: the faulting virtual address.
        access: the access kind that faulted ("read", "write", or "execute").
    """

    def __init__(self, vaddr: int, access: str = "read") -> None:
        super().__init__(f"page fault at {vaddr:#x} on {access}")
        self.vaddr = vaddr
        self.access = access


class ProtectionFault(ReproError):
    """A translation existed but the access right was missing.

    Attributes:
        vaddr: the offending virtual address.
        access: the access kind that was denied.
    """

    def __init__(self, vaddr: int, access: str) -> None:
        super().__init__(f"protection fault at {vaddr:#x} on {access}")
        self.vaddr = vaddr
        self.access = access


class AlignmentFault(ReproError):
    """A word access to RAM was not naturally aligned (the Alpha traps).

    Attributes:
        vaddr: the misaligned virtual address.
        access: the access kind that faulted ("read" or "write").
    """

    def __init__(self, vaddr: int, access: str) -> None:
        super().__init__(f"alignment fault at {vaddr:#x} on {access}")
        self.vaddr = vaddr
        self.access = access


class BusError(ReproError):
    """A physical access hit no device window and no RAM."""

    def __init__(self, paddr: int, op: str = "access") -> None:
        super().__init__(f"bus error: {op} to unmapped physical {paddr:#x}")
        self.paddr = paddr
        self.op = op


class DeviceError(ReproError):
    """A device was driven in a way its register interface forbids."""


class KernelError(ReproError):
    """A syscall was invoked with arguments the kernel must reject."""


class SchedulerError(ReproError):
    """The scheduler was asked to do something impossible."""


class NetworkError(ReproError):
    """A network operation referenced unknown nodes or dead links."""


class VerificationError(ReproError):
    """The model checker or stress harness was misconfigured."""


class ObservabilityError(ReproError):
    """The span/metrics layer was misused (e.g. unbalanced span pairs)."""
