"""Shared rig for fault-injection tests: a hardened workstation."""

from dataclasses import dataclass

import pytest

from repro.core.api import DmaChannel
from repro.core.machine import MachineConfig, Workstation

TRANSFER_BYTES = 4096


@dataclass
class Rig:
    """A page-bounded workstation with one DMA-enabled process."""

    ws: object
    proc: object
    src: object
    dst: object
    chan: DmaChannel
    expected: bytes

    def landed(self) -> bool:
        """Did the payload arrive intact at the destination?"""
        return (self.ws.ram.read(self.dst.paddr, TRANSFER_BYTES)
                == self.expected)

    def dst_untouched(self) -> bool:
        return (self.ws.ram.read(self.dst.paddr, TRANSFER_BYTES)
                == b"\0" * TRANSFER_BYTES)


@pytest.fixture
def make_rig():
    def make(method: str = "keyed", seed: int = 7) -> Rig:
        ws = Workstation(MachineConfig(method=method, page_bounded=True,
                                       seed=seed, spans_enabled=True))
        proc = ws.kernel.spawn("t")
        ws.kernel.enable_user_dma(proc)
        src = ws.kernel.alloc_buffer(proc, 8192)
        dst = ws.kernel.alloc_buffer(proc, 8192)
        payload = bytes(range(256)) * (TRANSFER_BYTES // 256)
        ws.ram.write(src.paddr, payload)
        ws.ram.write(dst.paddr, b"\0" * TRANSFER_BYTES)
        return Rig(ws=ws, proc=proc, src=src, dst=dst,
                   chan=DmaChannel(ws, proc), expected=payload)
    return make
