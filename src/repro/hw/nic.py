"""The network interface: a DMA engine whose destinations may be remote.

The paper's context is a Network of Workstations with user-level
memory-mapped network interfaces (Telegraphos, SHRIMP, Memory Channel...).
Following the authors' own Telegraphos design, the cluster exposes a
**global physical address space**: the high bits of a transfer destination
name the workstation, the low bits the address within that workstation's
memory.  A NIC therefore accepts exactly the same initiation protocols as
the plain DMA engine — the only difference is the data mover, which routes
remote destinations over a network fabric instead of copying locally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol

from ..errors import AddressError, ConfigError, NetworkError
from ..obs.spans import SpanTracer
from ..sim.engine import Simulator
from ..units import Time, mbps, ns
from .dma.engine import DmaEngine
from .dma.recognizer import InitiationProtocol
from .dma.shadow import ShadowLayout
from .memory import PhysicalMemory


@dataclass(frozen=True)
class GlobalAddressMap:
    """Encodes (node, local physical address) into one global address.

    Attributes:
        node_bits: width of the node-id field.
        local_bits: width of the per-node address field; every node's RAM
            must fit below ``1 << local_bits``.
    """

    node_bits: int = 6
    local_bits: int = 28

    def __post_init__(self) -> None:
        if self.node_bits <= 0 or self.local_bits <= 0:
            raise ConfigError("address fields must be positive widths")

    @property
    def max_nodes(self) -> int:
        """Number of addressable nodes."""
        return 1 << self.node_bits

    @property
    def local_size(self) -> int:
        """Per-node address-space size in bytes."""
        return 1 << self.local_bits

    # encode and decode run on every engine start and kernel DMA, so they
    # test the field widths directly rather than through the properties.

    def encode(self, node: int, local: int) -> int:
        """Build the global address of (*node*, *local*)."""
        if node < 0 or node >> self.node_bits:
            raise AddressError(f"node {node} out of range")
        bits = self.local_bits
        if local < 0 or local >> bits:
            raise AddressError(
                f"local address {local:#x} overflows {bits} bits")
        return (node << bits) | local

    def decode(self, global_addr: int) -> "tuple[int, int]":
        """Split a global address into (node, local)."""
        if global_addr < 0:
            raise AddressError(f"negative global address {global_addr:#x}")
        bits = self.local_bits
        node = global_addr >> bits
        if node >> self.node_bits:
            raise AddressError(
                f"global address {global_addr:#x} names node {node} "
                f">= {self.max_nodes}")
        return node, global_addr & ((1 << bits) - 1)


class Fabric(Protocol):
    """What a NIC needs from the network substrate (see repro.net.now)."""

    def send_write(self, src_node: int, dst_node: int, pdst_local: int,
                   payload: bytes) -> None:
        """Deliver *payload* into *dst_node*'s memory at *pdst_local*."""

    def node_ram(self, node: int) -> PhysicalMemory:
        """The RAM of *node* (for destination validation)."""


class NetworkInterface(DmaEngine):
    """A DMA engine on the cluster fabric.

    Args:
        node_id: this workstation's id in the global address map.
        fabric: the cluster fabric (None for a standalone machine — the
            NIC then behaves exactly like a local DmaEngine but still
            understands self-addressed global destinations).
        addr_map: the global address encoding.
        Remaining arguments as for :class:`DmaEngine`.
    """

    def __init__(self, sim: Simulator, ram: PhysicalMemory,
                 protocol: InitiationProtocol, node_id: int = 0,
                 fabric: Optional[Fabric] = None,
                 addr_map: Optional[GlobalAddressMap] = None,
                 layout: Optional[ShadowLayout] = None,
                 bandwidth_bps: float = mbps(400.0),
                 startup: Time = ns(200),
                 page_bounded: bool = False,
                 spans: Optional[SpanTracer] = None,
                 name: str = "nic") -> None:
        self.addr_map = addr_map if addr_map is not None else GlobalAddressMap()
        if ram.size > self.addr_map.local_size:
            raise ConfigError(
                "RAM exceeds the per-node global address space; "
                "widen local_bits")
        self.node_id = node_id
        self.fabric = fabric
        self.remote_sends = 0
        super().__init__(sim, ram, protocol, layout=layout,
                         bandwidth_bps=bandwidth_bps, startup=startup,
                         page_bounded=page_bounded, spans=spans, name=name)

    # -- DmaEngine overrides -----------------------------------------------------

    def _valid_endpoint(self, paddr: int, size: int) -> bool:
        """Accept local RAM and remote global addresses (destinations)."""
        node, local = self._decode_or_local(paddr)
        if node == self.node_id:
            return self.ram.contains(local, size)
        if self.fabric is None:
            return False
        try:
            remote = self.fabric.node_ram(node)
        except NetworkError:
            return False
        return remote.contains(local, size)

    def _valid_source(self, paddr: int, size: int) -> bool:
        """Sources must be local: the engine only reads its host memory."""
        node, local = self._decode_or_local(paddr)
        return node == self.node_id and self.ram.contains(local, size)

    def _move_bytes(self, psrc: int, pdst: int, size: int) -> None:
        src_node, src_local = self._decode_or_local(psrc)
        if src_node != self.node_id:
            raise NetworkError(
                f"nic on node {self.node_id} cannot read remote "
                f"source {psrc:#x}")
        payload = self.ram.read(src_local, size)
        dst_node, dst_local = self._decode_or_local(pdst)
        if dst_node == self.node_id:
            self.ram.write(dst_local, payload)
            return
        if self.fabric is None:
            raise NetworkError(
                f"nic on node {self.node_id} has no fabric for remote "
                f"destination {pdst:#x}")
        self.remote_sends += 1
        self.fabric.send_write(self.node_id, dst_node, dst_local, payload)

    # -- undo journal --------------------------------------------------------------

    def _scalar_state(self) -> tuple:
        return super()._scalar_state() + (self.remote_sends,)

    def _restore_scalar_state(self, blob: tuple) -> None:
        super()._restore_scalar_state(blob[:-1])
        self.remote_sends = blob[-1]

    # -- helpers -------------------------------------------------------------------

    def global_address(self, local: int) -> int:
        """This node's global address for local physical *local*."""
        return self.addr_map.encode(self.node_id, local)

    def _decode_or_local(self, paddr: int) -> "tuple[int, int]":
        """Decode *paddr* as global; plain local addresses are node 0...

        Addresses below the per-node size decode to (node 0, addr), which
        for node 0 is identical to a local address — standalone machines
        use node_id 0 so purely local software never notices the map.
        """
        return self.addr_map.decode(paddr)
