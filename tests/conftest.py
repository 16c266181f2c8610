"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import contextlib
import gc
from typing import Iterator

import pytest

from repro.core.api import DmaChannel
from repro.core.machine import MachineConfig, Workstation
from repro.hw.dma.protocols.capio import pack_cap_word
from repro.hw.dma.protocols.keyed import ARG_DESTINATION, ARG_SOURCE
from repro.hw.dma.recognizer import SetupOp

#: Shared secrets for two-process modern-method harness tests.
MODERN_NONCE_1, MODERN_NONCE_2 = 0x1111, 0x2222


def modern_stream_kwargs(method: str):
    """(kwargs_1, kwargs_2) for initiation_stream on the modern methods.

    Process 1 runs on context 0, process 2 on context 1; for capio the
    psrc/pdst positional arguments double as capability-buffer offsets
    against base-0 capabilities (caps 1 and 2, see
    :func:`install_modern_setup`).
    """
    if method in ("iommu", "iommu_noshootdown"):
        return {"ctx_id": 0}, {"ctx_id": 1}
    if method in ("capio", "capio_noepoch"):
        return (
            {"ctx_id": 0,
             "src_token": pack_cap_word(1, 0, MODERN_NONCE_1, ARG_SOURCE),
             "dst_token": pack_cap_word(1, 0, MODERN_NONCE_1,
                                        ARG_DESTINATION)},
            {"ctx_id": 1,
             "src_token": pack_cap_word(2, 0, MODERN_NONCE_2, ARG_SOURCE),
             "dst_token": pack_cap_word(2, 0, MODERN_NONCE_2,
                                        ARG_DESTINATION)},
        )
    return {}, {}


def install_modern_setup(harness, method: str) -> None:
    """Kernel-side setup matching :func:`modern_stream_kwargs`."""
    if method in ("iommu", "iommu_noshootdown"):
        # Identity-map each process's pages so the stream IOVAs resolve.
        harness.install_setup(SetupOp("iommu-map", (0, 0, 0, True)))
        harness.install_setup(SetupOp("iommu-map", (1, 8192, 8192, True)))
    elif method in ("capio", "capio_noepoch"):
        harness.install_setup(SetupOp(
            "cap-mint", (1, 0, 1, 0, 16384, True, True, MODERN_NONCE_1)))
        harness.install_setup(SetupOp(
            "cap-mint", (2, 1, 2, 0, 32768, True, True, MODERN_NONCE_2)))


def drop_fingerprint_caches(harness) -> None:
    """Drop every cache behind ``harness.fingerprint()``.

    The next fingerprint is then computed cold, from the state itself,
    which is what a cached fingerprint must always equal.
    """
    engine = harness.engine
    engine._ctx_fp = None
    engine._ctx_fps = [None] * len(engine.contexts)
    engine._tables_fp = None
    engine._init_fp = ()
    engine.transfer_engine._fp_hist = ()
    harness.sim._sig = None
    protocol = harness.protocol
    if hasattr(protocol, "_completed_fp"):
        protocol._completed_fp = ()
    if hasattr(protocol, "_tables_fp"):
        protocol._tables_fp = ()


def mark_clock(journal, sim) -> int:
    """Open a journal epoch the way the checker's harness does for a
    bare simulator: the mark's entry holds the clock and counters,
    which the simulator does not capture itself."""
    return journal.mark(_restore_clock, (sim, sim.now, sim._seq,
                                         sim._events_fired))


def _restore_clock(entry) -> None:
    sim, now, seq, fired = entry
    sim.now, sim._seq, sim._events_fired = now, seq, fired


@contextlib.contextmanager
def assert_no_cyclic_garbage() -> Iterator[None]:
    """Assert that the body frees everything it drops by reference
    counting: with the cyclic collector off, nothing is left for it."""
    gc.collect()
    gc.disable()
    try:
        yield
        assert gc.collect() == 0
    finally:
        gc.enable()


def build_workstation(method: str = "keyed", **overrides) -> Workstation:
    """A fresh workstation wired for *method*."""
    return Workstation(MachineConfig(method=method, **overrides))


def ready_channel(method: str = "keyed", buf_bytes: int = 16384,
                  **overrides):
    """(workstation, process, src buffer, dst buffer, channel) for *method*.

    Buffers are allocated with shadow mappings where the method uses
    them; SHRIMP-1 additionally gets its mapped-out entries installed.
    """
    ws = build_workstation(method, **overrides)
    proc = ws.kernel.spawn("app")
    if method != "kernel":
        ws.kernel.enable_user_dma(proc)
    shadow = method != "kernel"
    src = ws.kernel.alloc_buffer(proc, buf_bytes, shadow=shadow)
    dst = ws.kernel.alloc_buffer(proc, buf_bytes, shadow=shadow)
    if method == "shrimp1":
        ws.kernel.map_out(proc, src.vaddr, proc, dst.vaddr, buf_bytes)
    channel = DmaChannel(ws, proc)
    return ws, proc, src, dst, channel


@pytest.fixture
def keyed_setup():
    """Default key-based machine, ready to DMA."""
    return ready_channel("keyed")


@pytest.fixture
def extshadow_setup():
    """Extended-shadow machine, ready to DMA."""
    return ready_channel("extshadow")


@pytest.fixture
def kernel_setup():
    """Kernel-only machine, ready for the Fig. 1 syscall path."""
    return ready_channel("kernel")
