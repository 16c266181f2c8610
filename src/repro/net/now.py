"""The cluster: workstations on a shared fabric.

:class:`Cluster` owns one :class:`~repro.sim.engine.Simulator` shared by
every node (a NOW has one global timeline), builds the workstations, and
implements the :class:`~repro.hw.nic.Fabric` protocol their NICs use to
deliver remote writes.  Topology is a full mesh by default — every node
pair gets its own link of the configured class — matching the switched
point-to-point networks (ATM, Myrinet, Telegraphos) the paper targets.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.machine import MachineConfig, Workstation
from ..errors import NetworkError
from ..hw.memory import PhysicalMemory
from ..sim.engine import Simulator
from ..units import Time
from .link import Link, LinkSpec, ATM_155
from .message import Message


class Cluster:
    """A Network of Workstations with a global physical address space."""

    def __init__(self, n_nodes: int, link_spec: LinkSpec = ATM_155,
                 config: Optional[MachineConfig] = None) -> None:
        if n_nodes < 1:
            raise NetworkError(f"cluster needs at least one node: {n_nodes}")
        self.sim = Simulator()
        self.link_spec = link_spec
        base = config if config is not None else MachineConfig()
        self.nodes: List[Workstation] = []
        for node_id in range(n_nodes):
            node_config = MachineConfig(
                method=base.method, timing=base.timing,
                ram_size=base.ram_size, n_contexts=base.n_contexts,
                seed=base.seed + node_id,
                relaxed_write_buffer=base.relaxed_write_buffer,
                write_buffer_collapsing=base.write_buffer_collapsing,
                node_id=node_id, atomic_mode=base.atomic_mode)
            self.nodes.append(Workstation(node_config, fabric=self,
                                          sim=self.sim))
        self._links: Dict[Tuple[int, int], Link] = {}
        for a in range(n_nodes):
            for b in range(a + 1, n_nodes):
                self._links[(a, b)] = Link(self.sim, link_spec, a, b)
        self.deliveries = 0
        # Remote atomic operations stall their initiator for a network
        # round trip: request + response at the link's latency plus the
        # serialization of one small packet each way.
        rtt = 2 * (link_spec.latency + link_spec.wire_time(16))
        for ws in self.nodes:
            if ws.atomic_unit is not None:
                ws.atomic_unit.remote_rtt = rtt

    # ------------------------------------------------------------------
    # the Fabric protocol (what NICs call)
    # ------------------------------------------------------------------

    def send_write(self, src_node: int, dst_node: int, pdst_local: int,
                   payload: bytes) -> None:
        """Carry a remote write across the fabric and deposit it."""
        link = self.link_between(src_node, dst_node)
        message = Message(src_node=src_node, dst_node=dst_node,
                          pdst_local=pdst_local, payload=payload,
                          sent_at=self.sim.now)
        link.send(message, self._deliver)

    def node_ram(self, node: int) -> PhysicalMemory:
        """The RAM of *node* (destination validation by sending NICs)."""
        return self.node(node).ram

    # ------------------------------------------------------------------

    def node(self, node_id: int) -> Workstation:
        """The workstation with id *node_id*.

        Raises:
            NetworkError: for an unknown id.
        """
        if not 0 <= node_id < len(self.nodes):
            raise NetworkError(f"no node {node_id} in this cluster")
        return self.nodes[node_id]

    def link_between(self, a: int, b: int) -> Link:
        """The link joining *a* and *b*.

        Raises:
            NetworkError: if either id is unknown or a == b.
        """
        key = (min(a, b), max(a, b))
        if key not in self._links:
            raise NetworkError(f"no link between nodes {a} and {b}")
        return self._links[key]

    def run_until_quiet(self, timeout: Optional[Time] = None) -> None:
        """Drain all in-flight background activity (transfers, messages)."""
        if timeout is None:
            self.sim.run()
        else:
            self.sim.run_until(self.sim.now + timeout)

    def __len__(self) -> int:
        return len(self.nodes)

    def _deliver(self, message: Message) -> None:
        ram = self.node_ram(message.dst_node)
        ram.write(message.pdst_local, message.payload)
        self.deliveries += 1
