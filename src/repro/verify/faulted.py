"""The stream-fault taxonomy the model checker re-verifies methods under.

The timed simulation injects faults at runtime (repro.faults.injector);
here the same fault taxonomy is applied **inside the model checker**, by
transforming a scenario's access streams before exhaustive interleaving:

* ``drop``      — an access never reaches the engine (lost bus cycle);
* ``duplicate`` — an access arrives twice (re-issued transaction);
* ``reorder``   — two adjacent accesses of one stream swap on the bus;
* ``delay``     — an access is held arbitrarily long (modelled as
  migrating to the end of its stream — the worst legal reordering);
* ``bitflip``   — one data bit of a value-carrying access flips.

This module builds the variants; the campaign that checks them is
:mod:`repro.verify.synth.kfault`, which ``repro faults`` runs at k=1.
Each single-fault variant of a scenario is then checked exhaustively for
the *protection* properties (authorized-start, single-issuer) over every
interleaving, exactly as §3.3.1 does for the fault-free case.  The
truthful-status property is deliberately excluded: a dropped store makes
an honest initiation legitimately fail, so "reported status matches" is
not expected to survive faults — *no unauthorized transfer ever starts*
is.

Verdicts per method:

* ``SAFE`` — protection holds in the fault-free scenario and in every
  single-fault variant;
* ``UNSAFE-BASELINE`` — the method already violates protection without
  faults (repeated3 / repeated4: the paper's own Figs. 5-6 attacks;
  shrimp2 / flash: the §2.5 pair race their kernel hooks exist to fix;
  iommu_noshootdown / capio_noepoch: the deliberately-weakened modern
  variants, broken by a stale IOTLB entry or a revoked-epoch token),
  so fault-hardening is moot;
* ``NEWLY-UNSAFE`` — safe without faults but a single fault breaks
  protection.  **No built-in method may ever earn this verdict** — that
  is the acceptance criterion CI enforces; the page-bounding engine
  hardening (:class:`repro.hw.dma.engine.DmaEngine`) exists precisely
  to keep bit-flipped size words from crossing page boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from ..faults.plan import BITFLIP, DELAY, DROP, DUPLICATE, REORDER
from .adversary import (
    fig5_scenario,
    fig6_scenario,
    pair_race_scenario,
    revoked_capability_scenario,
    stale_iotlb_scenario,
)
from .model_check import Scenario

#: Bit positions exercised by bitflip variants: low bits (small size
#: perturbations), bit 4, bit 13 (= PAGE_SHIFT: flips a size word past
#: the page boundary), and two high bits (wild sizes / corrupt keys).
FAULT_BITS: Tuple[int, ...] = (0, 1, 4, 13, 40, 63)

#: Access ops that carry a data word worth corrupting.
DATA_OPS = ("store", "exchange", "ctx-store")

#: Methods expected to keep full protection under any single fault.
#: (kernel is trivially immune — its path never crosses the faulted
#: shadow region; pal rides the same two-access stream as shrimp2.)
FAULT_HARDENED_METHODS: Tuple[str, ...] = (
    "shrimp1", "keyed", "extshadow", "repeated5", "iommu", "capio")

#: Every method the fault verification covers (all user-level methods
#: with a stream builder).
VERIFIABLE_METHODS: Tuple[str, ...] = (
    "shrimp1", "shrimp2", "flash", "pal", "keyed", "extshadow",
    "repeated3", "repeated4", "repeated5",
    "iommu", "iommu_noshootdown", "capio", "capio_noepoch")


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault, located in a scenario's streams.

    Attributes:
        kind: drop / duplicate / reorder / delay / bitflip.
        stream: index of the faulted stream.
        index: index of the faulted access within that stream.
        bit: data bit to flip (bitflip only).
    """

    kind: str
    stream: int
    index: int
    bit: Optional[int] = None

    def label(self) -> str:
        """Compact display form, e.g. ``bitflip[s0.a2.b13]``."""
        loc = f"s{self.stream}.a{self.index}"
        if self.bit is not None:
            loc += f".b{self.bit}"
        return f"{self.kind}[{loc}]"


def enumerate_single_faults(scenario: Scenario) -> List[FaultSpec]:
    """Every single-fault variant of *scenario*'s streams.

    Drops and duplicates apply to every access; reorders swap each
    adjacent pair; delays migrate each non-final access to the end of
    its stream; bitflips cover :data:`FAULT_BITS` on every
    value-carrying access.
    """
    specs: List[FaultSpec] = []
    for s_index, stream in enumerate(scenario.streams):
        length = len(stream)
        for a_index, access in enumerate(stream):
            specs.append(FaultSpec(DROP, s_index, a_index))
            specs.append(FaultSpec(DUPLICATE, s_index, a_index))
            if a_index < length - 1:
                specs.append(FaultSpec(REORDER, s_index, a_index))
                specs.append(FaultSpec(DELAY, s_index, a_index))
            if access.op in DATA_OPS:
                for bit in FAULT_BITS:
                    specs.append(FaultSpec(BITFLIP, s_index, a_index,
                                           bit=bit))
    return specs


def apply_fault(scenario: Scenario, spec: FaultSpec) -> Scenario:
    """A copy of *scenario* with *spec* applied to its streams.

    The variant always runs with ``check_truthfulness=False`` (an honest
    initiation may legitimately fail under a fault) and keeps the
    scenario's page-bounding setting.
    """
    streams = [list(s) for s in scenario.streams]
    target = streams[spec.stream]
    access = target[spec.index]
    if spec.kind == DROP:
        del target[spec.index]
    elif spec.kind == DUPLICATE:
        target.insert(spec.index + 1, access)
    elif spec.kind == REORDER:
        target[spec.index], target[spec.index + 1] = (
            target[spec.index + 1], target[spec.index])
    elif spec.kind == DELAY:
        del target[spec.index]
        target.append(access)
    elif spec.kind == BITFLIP:
        assert spec.bit is not None
        target[spec.index] = replace(access,
                                     data=access.data ^ (1 << spec.bit))
    else:
        raise ValueError(f"unknown fault kind {spec.kind!r}")
    return replace(scenario,
                   name=f"{scenario.name}+{spec.label()}",
                   streams=streams,
                   check_truthfulness=False)


def method_fault_scenarios(method: str) -> List[Scenario]:
    """The fault-free scenarios a method is judged on.

    Always the honest §2.5 pair race (page-bounded engine, truthfulness
    off so baseline and variants measure the same properties), plus the
    method's canonical attack scenario where one exists — the paper's
    own figure for repeated3/4, the stale-IOTLB grant for the IOMMU
    family, the revoked capability for the capio family — so the
    baseline classification matches the known flaw even if the pair
    race alone happens not to exhibit it (for the hardened iommu/capio
    the same scenario doubles as the fault-free safety proof of the
    shoot-down / epoch defence).
    """
    scenarios: List[Scenario] = []
    race = pair_race_scenario(method)
    race.page_bounded = True
    race.check_truthfulness = False
    scenarios.append(race)
    extra: Optional[Scenario] = None
    if method == "repeated3":
        extra = fig5_scenario()[0]
    elif method == "repeated4":
        extra = fig6_scenario()[0]
    elif method in ("iommu", "iommu_noshootdown"):
        extra = stale_iotlb_scenario(method)
    elif method in ("capio", "capio_noepoch"):
        extra = revoked_capability_scenario(method)
    if extra is not None:
        extra.page_bounded = True
        extra.check_truthfulness = False
        scenarios.append(extra)
    return scenarios
