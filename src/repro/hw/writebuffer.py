"""The CPU write buffer.

Stores to uncached (device) space are *posted*: the CPU deposits them in a
small write buffer and continues; the buffer drains to the bus in FIFO
order when a memory barrier executes, when an uncached load needs ordering,
or when the buffer fills.

Crucially for the paper, real write buffers may **collapse** successive
stores to the same address (footnote 6): the second store simply replaces
the first entry's data and never appears on the bus as a separate
transaction.  This buffer always collapses.  The repeated-passing
protocol (§3.3) stores to the *same* shadow address twice, so without
explicit memory barriers the DMA engine never sees the repeats and the
initiation cannot succeed.  The footnote-6 ablation
(``benchmarks/bench_footnote6.py``) demonstrates exactly this by
switching the machine's ``relaxed_write_buffer`` and the memory barriers
on and off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..errors import ConfigError
from ..units import Time

#: Signature of the drain target: (paddr, value) -> bus cost.
DrainFn = Callable[[int, int], Time]


@dataclass
class _PendingStore:
    paddr: int
    value: int


class WriteBuffer:
    """A FIFO of posted uncached stores that collapses same-address stores.

    Two ordering models are supported:

    * **strong** (``relaxed=False``, the default): an uncached load drains
      every pending store first, so the device observes program order.
      This is the behaviour of a bus interface that keeps one CPU's
      accesses to a device FIFO.
    * **relaxed** (``relaxed=True``): uncached loads bypass pending stores
      (the device may see the load *before* earlier stores), and a load
      whose address matches a pending entry is *serviced by the write
      buffer* — it returns the buffered data and never reaches the device
      at all.  This is the hardware behaviour the paper's footnote 6
      warns about, and it is fatal to the repeated-passing sequence
      unless memory barriers are inserted; the ablation benchmark
      demonstrates exactly that.

    A store to an address that already has a pending entry overwrites
    that entry's value instead of appending (footnote 6's "collapsed in
    ... the write buffer").

    Args:
        capacity: number of entries (typical early-90s CPUs: 4).
        relaxed: enable load bypassing and load forwarding as above.
    """

    def __init__(self, capacity: int = 4, relaxed: bool = False) -> None:
        if capacity <= 0:
            raise ConfigError(
                f"write buffer capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.relaxed = relaxed
        self.stores_posted = 0
        self.stores_collapsed = 0
        self.loads_forwarded = 0
        self.drains = 0
        self._entries: List[_PendingStore] = []

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        """Whether a new entry would exceed capacity."""
        return len(self._entries) >= self.capacity

    def pending_addresses(self) -> List[int]:
        """Addresses currently buffered, oldest first."""
        return [e.paddr for e in self._entries]

    def forward(self, paddr: int) -> Optional[int]:
        """Service a load from a pending same-address entry (relaxed mode).

        Returns the buffered value, or None when the load must go to the
        bus.  Only active in relaxed mode — a strongly ordered interface
        drains before the load instead.
        """
        if not self.relaxed:
            return None
        for entry in reversed(self._entries):
            if entry.paddr == paddr:
                self.loads_forwarded += 1
                return entry.value
        return None

    def post(self, paddr: int, value: int,
             drain: DrainFn) -> Time:
        """Post a store.

        A same-address entry is overwritten in place at zero bus cost;
        otherwise, if the buffer is full, the oldest entry drains first
        (cost charged).

        Returns:
            Bus time spent making room (0 unless the buffer was full).
        """
        self.stores_posted += 1
        for entry in self._entries:
            if entry.paddr == paddr:
                entry.value = value
                self.stores_collapsed += 1
                return 0
        cost: Time = 0
        if len(self._entries) >= self.capacity:
            cost = self._drain_one(drain)
        self._entries.append(_PendingStore(paddr, value))
        return cost

    def flush(self, drain: DrainFn) -> Time:
        """Drain every entry in FIFO order (memory barrier).

        Returns:
            Total bus time of the drained stores.
        """
        total: Time = 0
        while self._entries:
            total += self._drain_one(drain)
        return total

    def discard(self) -> int:
        """Drop all entries without performing them (power-on reset only).

        Returns:
            The number of entries dropped.
        """
        dropped = len(self._entries)
        self._entries.clear()
        return dropped

    def _drain_one(self, drain: DrainFn) -> Time:
        entry = self._entries.pop(0)
        self.drains += 1
        return drain(entry.paddr, entry.value)
