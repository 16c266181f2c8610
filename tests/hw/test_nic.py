"""Unit tests for the NIC: global addressing, remote routing."""

import pytest

from repro.errors import AddressError, ConfigError, NetworkError
from repro.hw.dma.protocols.shrimp2 import PendingPairProtocol
from repro.hw.memory import PhysicalMemory
from repro.hw.nic import GlobalAddressMap, NetworkInterface
from repro.sim.engine import Simulator
from repro.units import kib


class FakeFabric:
    """Captures remote writes; exposes per-node RAM."""

    def __init__(self, rams):
        self.rams = rams
        self.sent = []

    def send_write(self, src_node, dst_node, pdst_local, payload):
        self.sent.append((src_node, dst_node, pdst_local, payload))
        self.rams[dst_node].write(pdst_local, payload)

    def node_ram(self, node):
        if node not in self.rams:
            raise NetworkError(f"no node {node}")
        return self.rams[node]


class TestGlobalAddressMap:
    def test_roundtrip(self):
        amap = GlobalAddressMap()
        for node, local in [(0, 0), (3, 0x1234), (63, (1 << 28) - 8),
                            (0, (1 << 28) - 1), (63, (1 << 28) - 1),
                            (1, 0), (63, 0)]:
            assert amap.decode(amap.encode(node, local)) == (node, local)

    @pytest.mark.parametrize("call, message", [
        (lambda m: m.encode(64, 0), "node 64 out of range"),
        (lambda m: m.encode(-1, 0), "node -1 out of range"),
        (lambda m: m.encode(0, 1 << 28),
         "local address 0x10000000 overflows 28 bits"),
        (lambda m: m.encode(0, -1), "local address -0x1 overflows 28 bits"),
        (lambda m: m.decode(1 << 34),
         "global address 0x400000000 names node 64 >= 64"),
        (lambda m: m.decode(-1), "negative global address -0x1"),
    ])
    def test_errors_at_the_field_edges(self, call, message):
        with pytest.raises(AddressError) as info:
            call(GlobalAddressMap())
        assert str(info.value) == message

    def test_last_global_address_decodes(self):
        amap = GlobalAddressMap()
        assert amap.decode((1 << 34) - 1) == (63, (1 << 28) - 1)

    def test_node_zero_is_identity(self):
        amap = GlobalAddressMap()
        assert amap.encode(0, 0x5000) == 0x5000

    def test_overflow_rejected(self):
        amap = GlobalAddressMap()
        with pytest.raises(AddressError):
            amap.encode(64, 0)
        with pytest.raises(AddressError):
            amap.encode(0, 1 << 28)
        with pytest.raises(AddressError):
            amap.decode(1 << 40)

    def test_negative_rejected(self):
        with pytest.raises(AddressError):
            GlobalAddressMap().decode(-1)

    def test_bad_widths_rejected(self):
        with pytest.raises(ConfigError):
            GlobalAddressMap(node_bits=0)


def make_pair():
    sim = Simulator()
    ram0 = PhysicalMemory(kib(64))
    ram1 = PhysicalMemory(kib(64))
    fabric = FakeFabric({0: ram0, 1: ram1})
    nic0 = NetworkInterface(sim, ram0, PendingPairProtocol(), node_id=0,
                            fabric=fabric)
    return sim, ram0, ram1, fabric, nic0


def test_local_transfer_stays_local():
    sim, ram0, _, fabric, nic0 = make_pair()
    ram0.write(0, b"local")
    status = nic0.try_start(0, 0x800, 5)
    sim.run()
    assert status == 5
    assert ram0.read(0x800, 5) == b"local"
    assert fabric.sent == []


def test_remote_destination_routed_over_fabric():
    sim, ram0, ram1, fabric, nic0 = make_pair()
    ram0.write(0, b"to node 1")
    remote = nic0.addr_map.encode(1, 0x800)
    status = nic0.try_start(0, remote, 9)
    sim.run()
    assert status == 9
    assert ram1.read(0x800, 9) == b"to node 1"
    assert nic0.remote_sends == 1


def test_remote_destination_validated_against_remote_ram():
    _, _, _, _, nic0 = make_pair()
    too_far = nic0.addr_map.encode(1, kib(64) - 4)
    assert nic0.try_start(0, too_far, 64) == (1 << 64) - 1


def test_unknown_node_rejected():
    _, _, _, _, nic0 = make_pair()
    ghost = nic0.addr_map.encode(9, 0)
    assert nic0.try_start(0, ghost, 8) == (1 << 64) - 1


def test_remote_source_never_allowed():
    sim, ram0, _, fabric, nic0 = make_pair()
    remote_src = nic0.addr_map.encode(1, 0)
    assert nic0.try_start(remote_src, 0, 8) == (1 << 64) - 1


def test_no_fabric_means_local_only():
    sim = Simulator()
    ram = PhysicalMemory(kib(64))
    nic = NetworkInterface(sim, ram, PendingPairProtocol(), node_id=0,
                           fabric=None)
    remote = nic.addr_map.encode(1, 0)
    assert nic.try_start(0, remote, 8) == (1 << 64) - 1
    assert nic.try_start(0, 0x800, 8) == 8


def test_nonzero_node_treats_own_global_addresses_as_local():
    sim = Simulator()
    ram = PhysicalMemory(kib(64))
    fabric = FakeFabric({2: ram})
    nic = NetworkInterface(sim, ram, PendingPairProtocol(), node_id=2,
                           fabric=fabric)
    ram.write(0, b"self")
    me = nic.global_address(0)
    status = nic.try_start(me, nic.global_address(0x800), 4)
    sim.run()
    assert status == 4
    assert ram.read(0x800, 4) == b"self"
    assert fabric.sent == []


def test_ram_must_fit_node_address_space():
    sim = Simulator()
    big = PhysicalMemory(1 << 29)  # 512 MiB > 2^28
    with pytest.raises(ConfigError):
        NetworkInterface(sim, big, PendingPairProtocol())
