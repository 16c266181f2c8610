"""Point-to-point links.

A :class:`Link` carries messages with a serialization delay (size over
bandwidth) plus a fixed propagation/switching latency, delivering them in
FIFO order — a busy link queues later messages behind earlier ones.

Presets match the networks the paper's introduction names:

* :data:`ATM_155` — "ATM networks that provide 155 Mbps are common today";
* :data:`ATM_622` — "will soon be upgraded to 622 Mbps";
* :data:`GIGABIT` — "Gigabit LANs have already started to appear".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import NetworkError
from ..sim.engine import Simulator
from ..units import Time, gbps, mbps, transfer_time, us
from .message import Message

#: Delivery callback: invoked at the receiving node when a message lands.
DeliveryFn = Callable[[Message], None]


@dataclass(frozen=True)
class LinkSpec:
    """Bandwidth/latency parameters of one link class.

    Attributes:
        name: preset name.
        bandwidth_bps: serialization bandwidth, bits/second.
        latency: fixed propagation + switch latency.
        per_message_overhead: header/framing bytes added to each message.
    """

    name: str
    bandwidth_bps: float
    latency: Time
    per_message_overhead: int = 16

    def wire_time(self, nbytes: int) -> Time:
        """Serialization time of a *nbytes*-payload message."""
        return transfer_time(nbytes + self.per_message_overhead,
                             self.bandwidth_bps)

    def delivery_time(self, nbytes: int) -> Time:
        """Total unloaded transfer time of a message."""
        return self.latency + self.wire_time(nbytes)


ATM_155 = LinkSpec(name="atm-155", bandwidth_bps=mbps(155.0),
                   latency=us(10))
ATM_622 = LinkSpec(name="atm-622", bandwidth_bps=mbps(622.0),
                   latency=us(6))
GIGABIT = LinkSpec(name="gigabit", bandwidth_bps=gbps(1.0),
                   latency=us(3))

LINK_PRESETS = {spec.name: spec for spec in (ATM_155, ATM_622, GIGABIT)}


class Link:
    """A FIFO point-to-point link between two fabric nodes."""

    def __init__(self, sim: Simulator, spec: LinkSpec,
                 a: int, b: int) -> None:
        self.sim = sim
        self.spec = spec
        self.endpoints = (a, b)
        self.messages_carried = 0
        self.bytes_carried = 0
        self._busy_until: Time = 0

    def connects(self, a: int, b: int) -> bool:
        """Whether this link joins nodes *a* and *b* (either direction)."""
        return {a, b} == set(self.endpoints)

    def send(self, message: Message, deliver: DeliveryFn) -> Time:
        """Transmit *message*; schedules *deliver* at arrival time.

        Returns:
            The absolute delivery timestamp.

        Raises:
            NetworkError: if the message's nodes are not this link's.
        """
        if not self.connects(message.src_node, message.dst_node):
            raise NetworkError(
                f"link {self.endpoints} cannot carry {message!r}")
        start = max(self.sim.now, self._busy_until)
        wire = self.spec.wire_time(message.size)
        self._busy_until = start + wire
        arrival = self._busy_until + self.spec.latency
        self.messages_carried += 1
        self.bytes_carried += message.size
        self.sim.call_at(arrival, lambda: deliver(message),
                         label=f"deliver#{message.seq}")
        return arrival

    @property
    def utilization_window(self) -> Time:
        """Time until the link becomes idle (0 if already idle)."""
        return max(0, self._busy_until - self.sim.now)
