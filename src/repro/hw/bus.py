"""The I/O bus: device windows, MMIO routing, and per-access timing.

The paper's prototype hung a 12.5 MHz FPGA board off a TurboChannel bus;
the dominant cost of user-level DMA initiation is the handful of uncached
bus accesses it issues.  :class:`Bus` routes physical accesses either to
RAM or to an attached :class:`~repro.hw.device.MmioDevice`, and charges a
per-access cost from its :class:`BusTiming`.

Timing presets:

* :data:`TURBOCHANNEL_12_5` — the paper's measured configuration.
* :data:`PCI_33` / :data:`PCI_66` — the "modern faster buses" the paper
  says would shrink user-level initiation further (§3.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import BusError, ConfigError
from ..sim.clock import Clock
from ..sim.stats import Counter, StatRegistry
from ..units import Time, mhz
from .device import AccessContext, MmioDevice
from .memory import PhysicalMemory


@dataclass(frozen=True)
class BusTiming:
    """Cycle counts for one bus generation.

    Attributes:
        name: preset name.
        frequency_hz: bus clock.
        device_read_cycles: bus cycles for an uncached device word read
            (includes the round trip back to the CPU).
        device_write_cycles: bus cycles for an uncached device word write
            (includes address/data phases and turnaround).
        ram_word_cycles: bus cycles per word when a bus master streams
            to/from RAM (used by the DMA data mover).
    """

    name: str
    frequency_hz: float
    device_read_cycles: int
    device_write_cycles: int
    ram_word_cycles: int

    def clock(self) -> Clock:
        """Build the clock domain for this bus."""
        return Clock(self.name, self.frequency_hz)


#: The paper's prototype: TurboChannel at 12.5 MHz (80 ns/cycle).  The
#: read/write cycle counts are calibrated so that the two-access extended
#: shadow sequence lands at Table 1's 1.1 us (see DESIGN.md §6).
TURBOCHANNEL_12_5 = BusTiming(
    name="turbochannel-12.5",
    frequency_hz=mhz(12.5),
    device_read_cycles=6,
    device_write_cycles=7,
    ram_word_cycles=1,
)

#: PCI at 33 MHz: same protocol-level cycle counts, 2.64x faster clock.
PCI_33 = BusTiming(
    name="pci-33",
    frequency_hz=mhz(33),
    device_read_cycles=6,
    device_write_cycles=7,
    ram_word_cycles=1,
)

#: PCI at 66 MHz, the fastest bus the paper mentions.
PCI_66 = BusTiming(
    name="pci-66",
    frequency_hz=mhz(66),
    device_read_cycles=6,
    device_write_cycles=7,
    ram_word_cycles=1,
)

BUS_PRESETS = {
    preset.name: preset
    for preset in (TURBOCHANNEL_12_5, PCI_33, PCI_66)
}


class Bus:
    """Routes physical word accesses to RAM or device windows.

    RAM occupies [0, ram.size); device windows must not overlap RAM or each
    other.  Word accesses only — the CPU and DMA engine both speak 64-bit
    words to devices.
    """

    def __init__(self, ram: PhysicalMemory, timing: BusTiming,
                 stats: Optional[StatRegistry] = None) -> None:
        self.ram = ram
        self.timing = timing
        self.clock = timing.clock()
        self.stats = stats if stats is not None else StatRegistry("bus")
        #: ``(base, limit, device)`` per window, in base order: every
        #: access scans it, so the bounds are plain ints.
        self._windows: Tuple[Tuple[int, int, MmioDevice], ...] = ()
        # Per-access costs, converted once.
        #: Bus time of one device word read, in ps.
        self.device_read_ps = self.clock.cycles(timing.device_read_cycles)
        #: Bus time of one device word write, in ps.
        self.device_write_ps = self.clock.cycles(timing.device_write_cycles)
        self._ram_word_ps = self.clock.cycles(timing.ram_word_cycles)
        # The device access counters, bound when first counted so the
        # registry lists its counters in the order they were first used.
        self._device_reads: Optional[Counter] = None
        self._device_writes: Optional[Counter] = None

    # -- topology ---------------------------------------------------------------

    def attach(self, device: MmioDevice, base: int, size: int) -> None:
        """Attach *device* at physical window [base, base+size).

        Raises:
            ConfigError: on overlap with RAM or an existing window.
        """
        if size <= 0:
            raise ConfigError(f"device window must be non-empty: {size}")
        if base < self.ram.size:
            raise ConfigError(
                f"device window {base:#x} overlaps RAM "
                f"(size {self.ram.size:#x})")
        limit = base + size
        for other_base, other_limit, other in self._windows:
            if base < other_limit and other_base < limit:
                raise ConfigError(
                    f"window for {device.name} overlaps {other.name}")
        self._windows = tuple(sorted(self._windows + ((base, limit, device),),
                                     key=lambda window: window[0]))

    def find_window(self, paddr: int) -> Optional[Tuple[MmioDevice, int]]:
        """Return (device, offset) owning *paddr*, or None."""
        for base, limit, device in self._windows:
            if base <= paddr < limit:
                return device, paddr - base
        return None

    def is_device(self, paddr: int) -> bool:
        """Whether *paddr* falls in any device window."""
        for base, limit, _ in self._windows:
            if base <= paddr < limit:
                return True
        return False

    @property
    def devices(self) -> List[MmioDevice]:
        """All attached devices, in window order."""
        return [device for _, _, device in self._windows]

    # -- timed accesses ------------------------------------------------------------

    def read_word(self, paddr: int, ctx: AccessContext) -> Tuple[int, Time]:
        """Perform a word read; return (value, bus cost).

        RAM reads are charged one data cycle; device reads are charged
        the full uncached round trip.

        Raises:
            BusError: if *paddr* is neither RAM nor a device window.
        """
        for base, limit, device in self._windows:
            if base <= paddr < limit:
                counter = self._device_reads
                if counter is None:
                    counter = self._device_reads = self.stats.counter(
                        "device_reads")
                counter.value += 1
                return (device.mmio_read(paddr - base, ctx),
                        self.device_read_ps)
        if self.ram.contains(paddr, 8):
            self.stats.counter("ram_reads").add()
            return self.ram.read_word(paddr), self._ram_word_ps
        raise BusError(paddr, "read")

    def write_word(self, paddr: int, value: int,
                   ctx: AccessContext) -> Time:
        """Perform a word write; return the bus cost.

        Raises:
            BusError: if *paddr* is neither RAM nor a device window.
        """
        for base, limit, device in self._windows:
            if base <= paddr < limit:
                counter = self._device_writes
                if counter is None:
                    counter = self._device_writes = self.stats.counter(
                        "device_writes")
                counter.value += 1
                device.mmio_write(paddr - base, value, ctx)
                return self.device_write_ps
        if self.ram.contains(paddr, 8):
            self.stats.counter("ram_writes").add()
            self.ram.write_word(paddr, value)
            return self._ram_word_ps
        raise BusError(paddr, "write")

    def dma_stream_cost(self, nbytes: int) -> Time:
        """Bus time for a DMA master to stream *nbytes* through RAM."""
        words = (nbytes + 7) // 8
        return self.clock.cycles(words * self.timing.ram_word_cycles)
