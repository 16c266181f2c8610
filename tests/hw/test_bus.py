"""Unit tests for the I/O bus: routing, windows, timing."""

import pytest

from repro.errors import BusError, ConfigError
from repro.hw.bus import (
    BUS_PRESETS,
    Bus,
    PCI_33,
    PCI_66,
    TURBOCHANNEL_12_5,
)
from repro.hw.device import AccessContext, MmioDevice
from repro.hw.memory import PhysicalMemory
from repro.units import kib


class Echo(MmioDevice):
    def __init__(self, name="echo"):
        super().__init__(name)
        self.writes = {}

    def mmio_read(self, offset, ctx):
        return self.writes.get(offset, 0xEE)

    def mmio_write(self, offset, value, ctx):
        self.writes[offset] = value


CTX = AccessContext(issuer=1, kernel=False, when=0)
WINDOW = 1 << 40


def make_bus(timing=TURBOCHANNEL_12_5):
    ram = PhysicalMemory(kib(64))
    bus = Bus(ram, timing)
    device = Echo()
    bus.attach(device, WINDOW, kib(32))
    return bus, device


def test_ram_routing():
    bus, _ = make_bus()
    cost = bus.write_word(64, 0x1234, CTX)
    value, _ = bus.read_word(64, CTX)
    assert value == 0x1234
    assert cost == bus.clock.cycles(TURBOCHANNEL_12_5.ram_word_cycles)


def test_device_routing_uses_offsets():
    bus, device = make_bus()
    bus.write_word(WINDOW + 0x100, 7, CTX)
    assert device.writes == {0x100: 7}
    value, _ = bus.read_word(WINDOW + 0x100, CTX)
    assert value == 7


def test_unmapped_address_is_bus_error():
    bus, _ = make_bus()
    with pytest.raises(BusError):
        bus.read_word(1 << 50, CTX)
    with pytest.raises(BusError):
        bus.write_word(1 << 50, 0, CTX)


def test_device_access_costs_match_preset():
    bus, _ = make_bus()
    write_cost = bus.write_word(WINDOW, 1, CTX)
    _, read_cost = bus.read_word(WINDOW, CTX)
    assert write_cost == bus.clock.cycles(
        TURBOCHANNEL_12_5.device_write_cycles)
    assert read_cost == bus.clock.cycles(
        TURBOCHANNEL_12_5.device_read_cycles)


def test_turbochannel_write_is_560ns():
    bus, _ = make_bus()
    assert bus.write_word(WINDOW, 1, CTX) == 560_000  # 7 x 80 ns in ps


def test_pci_is_faster_than_turbochannel():
    tc_bus, _ = make_bus(TURBOCHANNEL_12_5)
    pci_bus, _ = make_bus(PCI_33)
    assert (pci_bus.write_word(WINDOW, 1, CTX)
            < tc_bus.write_word(WINDOW, 1, CTX))


def test_pci66_twice_as_fast_as_pci33():
    b33, _ = make_bus(PCI_33)
    b66, _ = make_bus(PCI_66)
    assert b66.write_word(WINDOW, 1, CTX) * 2 == pytest.approx(
        b33.write_word(WINDOW, 1, CTX), rel=0.01)


def test_window_overlap_with_ram_rejected():
    ram = PhysicalMemory(kib(64))
    bus = Bus(ram, TURBOCHANNEL_12_5)
    with pytest.raises(ConfigError):
        bus.attach(Echo(), kib(32), kib(8))


def test_window_overlap_with_window_rejected():
    bus, _ = make_bus()
    with pytest.raises(ConfigError):
        bus.attach(Echo("other"), WINDOW + kib(16), kib(32))


def test_adjacent_windows_allowed():
    bus, _ = make_bus()
    bus.attach(Echo("other"), WINDOW + kib(32), kib(8))
    assert len(bus.devices) == 2


def test_empty_window_rejected():
    bus, _ = make_bus()
    with pytest.raises(ConfigError):
        bus.attach(Echo("z"), 1 << 45, 0)


def test_find_window_and_is_device():
    bus, device = make_bus()
    found = bus.find_window(WINDOW + 8)
    assert found == (device, 8)
    assert bus.is_device(WINDOW)
    assert not bus.is_device(0)
    assert bus.find_window(0) is None


@pytest.mark.parametrize("paddr, owner, offset", [
    (WINDOW - 1, None, None),                  # one byte below the first
    (WINDOW, "echo", 0),                       # first byte
    (WINDOW + kib(32) - 1, "echo", kib(32) - 1),  # last byte
    (WINDOW + kib(32), "next", 0),             # one past: the next window
    (WINDOW + kib(40) - 1, "next", kib(8) - 1),
    (WINDOW + kib(40), None, None),            # one past the last window
    (kib(64) - 1, None, None),                 # RAM's last byte
])
def test_window_edges(paddr, owner, offset):
    bus, _ = make_bus()
    bus.attach(Echo("next"), WINDOW + kib(32), kib(8))
    found = bus.find_window(paddr)
    if owner is None:
        assert found is None
        assert not bus.is_device(paddr)
    else:
        assert (found[0].name, found[1]) == (owner, offset)
        assert bus.is_device(paddr)


def test_dma_stream_cost_scales_with_words():
    bus, _ = make_bus()
    assert bus.dma_stream_cost(64) == bus.clock.cycles(8)
    assert bus.dma_stream_cost(1) == bus.clock.cycles(1)  # rounds up


def test_stats_counters():
    bus, _ = make_bus()
    bus.write_word(WINDOW, 1, CTX)
    bus.read_word(WINDOW, CTX)
    bus.write_word(0, 1, CTX)
    assert bus.stats.counter("device_writes").value == 1
    assert bus.stats.counter("device_reads").value == 1
    assert bus.stats.counter("ram_writes").value == 1


def test_presets_registry():
    assert "turbochannel-12.5" in BUS_PRESETS
    assert "pci-66" in BUS_PRESETS
