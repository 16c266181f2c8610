"""Property tests for the modern methods' protection substrate.

Three families, targeted at where IOMMU/capability protection can rot:

* **containment** — under *random* interleavings of kernel operations
  (map/unmap/warm/invalidate, mint/revoke) and user initiation
  attempts, no transfer ever starts outside the currently-mapped /
  currently-valid bounds.  For the IOMMU this is an exact oracle: with
  shoot-down on, translation must agree with a model that consults only
  the page table (the IOTLB can never add rights);
* **invalidation ≡ cold** — after an explicit IOTLB invalidation, the
  unit is observationally equivalent to a freshly-built one holding the
  same page table (true even for the no-shootdown variant: explicit
  invalidation flushes what unmap leaked);
* **snapshot round-trips** — the checker's backtracking substrate
  restores IOMMU tables *and IOTLB order*, and the capio capability /
  latch / counter state, bit for bit.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.methods import make_protocol
from repro.hw.dma.protocols.capio import pack_cap_word
from repro.hw.dma.protocols.keyed import ARG_DESTINATION, ARG_SOURCE
from repro.hw.dma.recognizer import SetupOp
from repro.hw.dma.status import STATUS_FAILURE
from repro.hw.iommu import Iommu
from repro.hw.pagetable import PAGE_SIZE, page_base, page_offset
from repro.verify.interleave import AccessSpec, ProtocolHarness

N_CTX = 3
N_PAGES = 6  # well inside the harness's 8-page RAM

ctx_ids = st.integers(0, N_CTX - 1)
pages = st.sampled_from([n * PAGE_SIZE for n in range(N_PAGES)])
offsets = st.sampled_from([0, 8, 256, PAGE_SIZE - 64])
sizes = st.sampled_from([0, 1, 64, 256, PAGE_SIZE, PAGE_SIZE + 64,
                         2 * PAGE_SIZE])

iommu_ops = st.one_of(
    st.tuples(st.just("map"), ctx_ids, pages, pages, st.booleans()),
    st.tuples(st.just("unmap"), ctx_ids, pages),
    st.tuples(st.just("warm"), ctx_ids, pages),
    st.tuples(st.just("inval"), st.one_of(st.none(), ctx_ids)),
    st.tuples(st.just("translate"), ctx_ids,
              st.builds(lambda p, o: p + o, pages, offsets),
              sizes, st.booleans()),
)

ModelEntry = Tuple[int, bool]  # (phys_page, writable)
Model = Dict[Tuple[int, int], ModelEntry]


def model_translate(mappings: Model, ctx_id: int, iova: int, size: int,
                    write: bool) -> Optional[int]:
    """Reference translation consulting only the page table."""
    if size <= 0:
        return None
    entry = mappings.get((ctx_id, page_base(iova)))
    if entry is None or (write and not entry[1]):
        return None
    phys = entry[0] + page_offset(iova)
    expected = entry[0]
    page = page_base(iova) + PAGE_SIZE
    while page < iova + size:
        nxt = mappings.get((ctx_id, page))
        expected += PAGE_SIZE
        if nxt is None or (write and not nxt[1]) or nxt[0] != expected:
            return None
        page += PAGE_SIZE
    return phys


def apply_op(iommu: Iommu, mappings: Model, op) -> None:
    kind = op[0]
    if kind == "map":
        _, ctx_id, iova_page, phys_page, writable = op
        iommu.map(ctx_id, iova_page, phys_page, writable)
        mappings[(ctx_id, iova_page)] = (phys_page, writable)
    elif kind == "unmap":
        _, ctx_id, iova_page = op
        iommu.unmap(ctx_id, iova_page)
        mappings.pop((ctx_id, iova_page), None)
    elif kind == "warm":
        iommu.warm(op[1], op[2])
    elif kind == "inval":
        iommu.invalidate(op[1])


class TestIommuContainment:
    """The IOTLB is an accelerator, never an authority."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(iommu_ops, max_size=40))
    def test_translation_agrees_with_page_table_oracle(self, ops):
        """With shoot-down, caching is invisible: every translation —
        hit or miss, after any map/unmap/warm/invalidate history —
        equals the model's page-table walk."""
        iommu = Iommu(shootdown=True)
        mappings: Model = {}
        for op in ops:
            if op[0] == "translate":
                _, ctx_id, iova, size, write = op
                assert iommu.translate(ctx_id, iova, size, write) == \
                    model_translate(mappings, ctx_id, iova, size, write)
            else:
                apply_op(iommu, mappings, op)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(iommu_ops, max_size=40))
    def test_iotlb_stays_coherent_and_bounded(self, ops):
        """Every cached entry mirrors the live table, and the FIFO
        never outgrows its capacity."""
        iommu = Iommu(shootdown=True)
        mappings: Model = {}
        for op in ops:
            if op[0] == "translate":
                iommu.translate(op[1], op[2], op[3], op[4])
            else:
                apply_op(iommu, mappings, op)
            table, tlb, *_ = iommu.snapshot()
            assert len(tlb) <= iommu.tlb_capacity
            for key, entry in tlb:
                assert table.get(key) == entry

    @settings(max_examples=100, deadline=None)
    @given(st.lists(iommu_ops, max_size=40), st.booleans(),
           st.lists(st.tuples(ctx_ids,
                              st.builds(lambda p, o: p + o, pages, offsets),
                              sizes, st.booleans()),
                    max_size=10))
    def test_invalidation_is_observationally_cold(self, ops, shootdown,
                                                  queries):
        """invalidate() ≡ a fresh unit with the same page table — for
        both variants (explicit invalidation flushes what a
        no-shootdown unmap leaked)."""
        iommu = Iommu(shootdown=shootdown)
        mappings: Model = {}
        for op in ops:
            if op[0] == "translate":
                iommu.translate(op[1], op[2], op[3], op[4])
            else:
                apply_op(iommu, mappings, op)
        iommu.invalidate()
        cold = Iommu(shootdown=shootdown)
        for (ctx_id, iova_page), (phys_page, writable) in mappings.items():
            cold.map(ctx_id, iova_page, phys_page, writable)
        assert iommu.fingerprint() == cold.fingerprint()
        for ctx_id, iova, size, write in queries:
            assert (iommu.translate(ctx_id, iova, size, write)
                    == cold.translate(ctx_id, iova, size, write))
            # Both caches now hold the same (fresh) translations.
            assert iommu.fingerprint() == cold.fingerprint()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(iommu_ops, max_size=25),
           st.lists(iommu_ops, max_size=25))
    def test_snapshot_restore_round_trips(self, prefix, suffix):
        """snapshot/restore returns tables, IOTLB order, and counters
        exactly — the incremental checker backtracks through here."""
        iommu = Iommu(shootdown=True)
        mappings: Model = {}
        for op in prefix:
            if op[0] == "translate":
                iommu.translate(op[1], op[2], op[3], op[4])
            else:
                apply_op(iommu, mappings, op)
        saved = iommu.snapshot()
        fingerprint = iommu.fingerprint()
        for op in suffix:
            if op[0] == "translate":
                iommu.translate(op[1], op[2], op[3], op[4])
            else:
                apply_op(iommu, dict(mappings), op)
        iommu.restore(saved)
        assert iommu.snapshot() == saved
        assert iommu.fingerprint() == fingerprint


# ----------------------------------------------------------------------
# capio: mint/revoke interleavings
# ----------------------------------------------------------------------

CAP_IDS = (1, 2, 3)
NONCES = {1: 0x1111, 2: 0x2222, 3: 0x3333}

cap_kernel_ops = st.one_of(
    st.tuples(st.just("mint"), st.sampled_from(CAP_IDS),
              st.sampled_from([n * PAGE_SIZE for n in range(4)]),
              st.sampled_from([256, PAGE_SIZE, 2 * PAGE_SIZE]),
              st.booleans(), st.booleans()),
    st.tuples(st.just("revoke"), st.sampled_from(CAP_IDS)),
)

epoch_choices = st.sampled_from(["current", "stale"])

cap_attempts = st.tuples(
    st.just("attempt"),
    st.sampled_from(CAP_IDS), epoch_choices, offsets,   # source token
    st.sampled_from(CAP_IDS), epoch_choices, offsets,   # destination token
    sizes)

capio_programs = st.lists(st.one_of(cap_kernel_ops, cap_attempts),
                          max_size=25)


class ModelCap:
    def __init__(self, base, limit, readable, writable):
        self.base = base
        self.limit = limit
        self.readable = readable
        self.writable = writable
        self.epoch = 0


def token_epoch(cap: ModelCap, choice: str) -> int:
    return (cap.epoch - 1 if choice == "stale" else cap.epoch) & 0xF


def attempt_valid(caps: Dict[int, ModelCap], attempt) -> bool:
    """Whether the attempt's own tokens fully authorize it right now."""
    _, src_id, src_epoch, src_off, dst_id, dst_epoch, dst_off, size = attempt
    src, dst = caps.get(src_id), caps.get(dst_id)
    if src is None or dst is None or size <= 0:
        return False
    if token_epoch(src, src_epoch) != (src.epoch & 0xF):
        return False
    if token_epoch(dst, dst_epoch) != (dst.epoch & 0xF):
        return False
    return (src.readable and dst.writable
            and 0 <= src_off and src_off + size <= src.limit
            and 0 <= dst_off and dst_off + size <= dst.limit)


def contained_now(caps: Dict[int, ModelCap], addr: int, size: int,
                  write: bool) -> bool:
    """Some currently-valid capability covers [addr, addr+size)."""
    for cap in caps.values():
        if (cap.writable if write else cap.readable) \
                and cap.base <= addr and addr + size <= cap.base + cap.limit:
            return True
    return False


class TestCapioContainment:
    """Random mint/revoke/attempt interleavings never leak a transfer."""

    @settings(max_examples=150, deadline=None)
    @given(capio_programs)
    def test_transfers_stay_inside_live_capabilities(self, program):
        """Soundness *and* completeness: a transfer starts iff the
        attempt's tokens fully authorize it at fire time, and every
        started transfer lies inside capabilities valid *at that
        moment* — revocation between mint and fire always wins."""
        harness = ProtocolHarness(lambda: make_protocol("capio"))
        caps: Dict[int, ModelCap] = {}
        for op in program:
            if op[0] == "mint":
                _, cap_id, base, limit, readable, writable = op
                harness.protocol.apply_setup(SetupOp("cap-mint", (
                    cap_id, 0, 1, base, limit, readable, writable,
                    NONCES[cap_id])))
                caps[cap_id] = ModelCap(base, limit, readable, writable)
                continue
            if op[0] == "revoke":
                harness.protocol.apply_setup(SetupOp("cap-revoke", (op[1],)))
                if op[1] in caps:
                    caps[op[1]].epoch += 1
                continue
            (_, src_id, src_epoch, src_off,
             dst_id, dst_epoch, dst_off, size) = op
            tokens = []
            for cap_id, choice, arg in ((dst_id, dst_epoch, ARG_DESTINATION),
                                        (src_id, src_epoch, ARG_SOURCE)):
                cap = caps.get(cap_id)
                tokens.append(None if cap is None else pack_cap_word(
                    cap_id, token_epoch(cap, choice), NONCES[cap_id], arg))
            before = len(harness.engine.initiations)
            if tokens[0] is not None:
                harness.deliver(AccessSpec(2, "store", dst_off, tokens[0]))
            if tokens[1] is not None:
                harness.deliver(AccessSpec(2, "store", src_off, tokens[1]))
            harness.deliver(AccessSpec(2, "ctx-store", 0, size))
            status = harness.deliver(AccessSpec(2, "ctx-load", 0,
                                                final=True))
            if attempt_valid(caps, op):
                assert status != STATUS_FAILURE
            for record in harness.engine.initiations[before:]:
                if not record.ok:
                    continue
                assert contained_now(caps, record.psrc, record.size,
                                     write=False)
                assert contained_now(caps, record.pdst, record.size,
                                     write=True)

    @settings(max_examples=100, deadline=None)
    @given(capio_programs, capio_programs)
    def test_protocol_snapshot_round_trips(self, prefix, suffix):
        """The capio snapshot returns capabilities (epochs included),
        latched argument refs, and the rejection counter exactly.

        Kernel ops (mint/revoke) are untimed setup outside the
        journal's coverage — as in the real pipeline, they all happen
        before checking starts; only user accesses run past the mark.
        """
        harness = ProtocolHarness(lambda: make_protocol("capio"))
        caps = self._run(harness, prefix)
        for op in suffix:  # pre-apply the suffix's kernel ops
            if op[0] != "attempt":
                self._apply_kernel(harness, caps, op)
        mark = harness.snapshot()
        state = harness.protocol.snapshot_state()
        fingerprint = harness.protocol.state_fingerprint()
        for op in suffix:
            if op[0] == "attempt":
                self._attempt(harness, caps, op)
        harness.restore(mark)
        assert harness.protocol.snapshot_state() == state
        assert harness.protocol.state_fingerprint() == fingerprint

    @classmethod
    def _run(cls, harness: ProtocolHarness, program) -> Dict[int, ModelCap]:
        caps: Dict[int, ModelCap] = {}
        for op in program:
            if op[0] == "attempt":
                cls._attempt(harness, caps, op)
            else:
                cls._apply_kernel(harness, caps, op)
        return caps

    @staticmethod
    def _apply_kernel(harness: ProtocolHarness, caps: Dict[int, ModelCap],
                      op) -> None:
        if op[0] == "mint":
            _, cap_id, base, limit, readable, writable = op
            harness.protocol.apply_setup(SetupOp("cap-mint", (
                cap_id, 0, 1, base, limit, readable, writable,
                NONCES[cap_id])))
            caps[cap_id] = ModelCap(base, limit, readable, writable)
        else:
            harness.protocol.apply_setup(SetupOp("cap-revoke", (op[1],)))
            if op[1] in caps:
                caps[op[1]].epoch += 1

    @staticmethod
    def _attempt(harness: ProtocolHarness, caps: Dict[int, ModelCap],
                 op) -> None:
        (_, src_id, src_epoch, src_off,
         dst_id, dst_epoch, dst_off, size) = op
        for cap_id, choice, arg, off in (
                (dst_id, dst_epoch, ARG_DESTINATION, dst_off),
                (src_id, src_epoch, ARG_SOURCE, src_off)):
            cap = caps.get(cap_id)
            if cap is not None:
                word = pack_cap_word(cap_id, token_epoch(cap, choice),
                                     NONCES[cap_id], arg)
                harness.deliver(AccessSpec(2, "store", off, word))
        harness.deliver(AccessSpec(2, "ctx-store", 0, size))
        harness.deliver(AccessSpec(2, "ctx-load", 0, final=True))
