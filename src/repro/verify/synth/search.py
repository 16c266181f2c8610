"""The guided hunt: synthesize adversary streams until one breaks a method.

The hunt composes a victim initiation stream (the method's own shadow
access sequence, from :func:`~repro.verify.interleave.initiation_stream`)
against candidate adversary streams drawn from the MMU-legal vocabulary
of :mod:`repro.verify.synth.generator`, and feeds each composition
through :func:`~repro.verify.incremental.check_scenario_incremental` —
so every candidate is judged over **all** interleavings, and the first
violating candidate yields a concrete counterexample interleaving.

Candidate order is guided two ways, interleaved by ``explore_ratio``:

* **Bandit-prioritized DFS** over the stream space: the driver keeps a
  stack of partial streams and expands children in descending bandit
  score.  The bandit arms are (recognizer state label, vocabulary
  index) pairs; after each candidate check, a cheap *probe* walks the
  victim prefix to every split point and delivers the candidate's
  accesses one by one, crediting an arm whenever its access advanced
  the recognizer's :meth:`state_label`.  Accesses that historically
  move the pattern recognizer get tried first — exactly the accesses
  that can complete someone else's pattern.
* **Hypothesis-driven random exploration**: a seeded random stream
  drawn with the bandit's current scores as selection weights — the
  "what if the learned distribution is sampled freely" mode that
  escapes DFS's lexicographic neighborhoods.

Determinism: everything flows from ``HuntConfig.seed`` through
:func:`~repro.sim.rng.make_rng`; a wall-clock budget (``budget_s``)
exists for CI smoke runs, but tests pin ``max_candidates`` instead so
two runs with one seed are byte-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ...errors import VerificationError
from ...hw.dma.recognizer import SetupOp
from ...hw.pagetable import PAGE_SIZE
from ...obs.profile import PhaseProfiler
from ...obs.spans import SpanTracer
from ...sim.rng import make_rng
from ..incremental import CheckStats, check_scenario_incremental
from ..interleave import AccessSpec, initiation_stream
from ..model_check import Scenario, make_harness
from ..properties import ProcessIntent, Rights
from .generator import (
    ADDR_A,
    ADDR_B,
    ADDR_C,
    ADDR_FOO,
    ADVERSARY_PID,
    SIZE,
    VICTIM_PID,
    AdversaryProfile,
    access_vocabulary,
    random_stream,
    standard_profile,
)
from .shrink import ShrunkCounterexample, describe_access, shrink_counterexample

#: The victim's secret for keyed hunts.  The synthesizer must not know
#: it — the adversary vocabulary only carries *wrong* guesses — so a
#: keyed counterexample would mean the protection, not the secrecy, is
#: broken.
SECRET_KEY = 0x0D15EA5E

#: IOVA page of the IOMMU hunts' transient grant: once mapped onto the
#: victim's B for the adversary's context, IOTLB-warmed, then unmapped.
STALE_IOVA = 4 * PAGE_SIZE

#: Capability nonces for the capio hunts.  The victim's is a secret the
#: adversary vocabulary never carries (the keyed-method discipline);
#: the adversary legitimately holds its own and the since-revoked one.
CAP_NONCE_VICTIM = 0x5EC2E7
CAP_NONCE_ADVERSARY = 0x0AD0C5
CAP_NONCE_STALE = 0x057A1E

#: Methods the hunt covers by default: the paper's two broken variants,
#: the two deliberately-weakened modern variants (all four are
#: rediscovery targets), and the six hardened methods (expected to
#: survive any budget).
HUNT_METHODS: Tuple[str, ...] = (
    "repeated3", "repeated4", "shrimp1", "keyed", "extshadow", "repeated5",
    "iommu", "iommu_noshootdown", "capio", "capio_noepoch")


@dataclass(frozen=True)
class HuntConfig:
    """Search budget and shape.

    Attributes:
        seed: master seed; all randomness derives from it.
        budget_s: optional wall-clock budget per method (None = no
            clock limit; rely on ``max_candidates``).
        max_candidates: optional cap on scenarios checked per method
            (None = no cap; rely on ``budget_s``).  At least one of the
            two budgets must be set.
        max_stream_len: longest adversary stream synthesized.
        explore_ratio: fraction of candidates drawn by hypothesis-driven
            random exploration instead of DFS order.
        max_interleavings: per-candidate order-count safety cap.
        shrink: reduce found counterexamples to 1-minimal cores.
    """

    seed: int = 0
    budget_s: Optional[float] = None
    max_candidates: Optional[int] = 400
    max_stream_len: int = 4
    explore_ratio: float = 0.25
    max_interleavings: int = 50_000
    shrink: bool = True

    def __post_init__(self) -> None:
        if self.budget_s is None and self.max_candidates is None:
            raise VerificationError(
                "HuntConfig needs budget_s or max_candidates (or both)")
        if self.max_stream_len < 1:
            raise VerificationError("max_stream_len must be >= 1")


@dataclass
class HuntReport:
    """Outcome of hunting one method.

    Attributes:
        method: the hunted method.
        seed: the seed the hunt ran under.
        found: a violating adversary stream was synthesized.
        exhausted: the DFS covered every stream up to
            ``max_stream_len`` without finding one (a bounded-safety
            statement, stronger than "budget ran out").
        candidates: scenarios actually checked.
        duplicates: random-exploration draws skipped as already seen.
        interleavings: total orders replayed across all candidates.
        accesses_delivered: engine deliveries spent (incremental-checker
            accounting, for the benchmark harness).
        elapsed_s: wall-clock spent on this method.
        adversary_stream: the violating stream (empty if none found).
        counterexample: the first violating interleaving (None if safe).
        props: properties that interleaving violates.
        shrunk: the 1-minimal core (when ``config.shrink``).
    """

    method: str
    seed: int
    found: bool = False
    exhausted: bool = False
    candidates: int = 0
    duplicates: int = 0
    interleavings: int = 0
    accesses_delivered: int = 0
    elapsed_s: float = 0.0
    adversary_stream: Tuple[AccessSpec, ...] = ()
    counterexample: Optional[Tuple[AccessSpec, ...]] = None
    props: Tuple[str, ...] = ()
    shrunk: Optional[ShrunkCounterexample] = None

    def summary(self) -> str:
        """One-line human-readable result."""
        if self.found:
            core = (f", shrunk to {len(self.shrunk)}"
                    if self.shrunk is not None else "")
            return (f"{self.method}: FOUND after {self.candidates} "
                    f"candidates ({', '.join(self.props)}{core})")
        state = "EXHAUSTED" if self.exhausted else "SAFE-WITHIN-BUDGET"
        return (f"{self.method}: {state} ({self.candidates} candidates, "
                f"{self.interleavings} interleavings)")

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready rendering (``repro hunt --output``)."""
        out: Dict[str, object] = {
            "method": self.method,
            "seed": self.seed,
            "found": self.found,
            "exhausted": self.exhausted,
            "candidates": self.candidates,
            "duplicates": self.duplicates,
            "interleavings": self.interleavings,
            "accesses_delivered": self.accesses_delivered,
            "elapsed_s": round(self.elapsed_s, 6),
        }
        if self.found:
            out["adversary_stream"] = [describe_access(a)
                                       for a in self.adversary_stream]
            out["counterexample"] = [describe_access(a)
                                     for a in self.counterexample or ()]
            out["props"] = list(self.props)
            if self.shrunk is not None:
                out["shrunk"] = self.shrunk.to_dict()
        return out


# ----------------------------------------------------------------------
# per-method scenario composition
# ----------------------------------------------------------------------


def _cap_word(cap_id: int, nonce: int, arg_is_dst: bool) -> int:
    """A capability token at epoch 0 (all hunt mints are epoch 0)."""
    from ...hw.dma.protocols.capio import pack_cap_word
    from ...hw.dma.protocols.keyed import ARG_DESTINATION, ARG_SOURCE

    return pack_cap_word(cap_id, 0, nonce,
                         ARG_DESTINATION if arg_is_dst else ARG_SOURCE)


def _victim_setup(method: str) -> Tuple[List[AccessSpec], Dict[int, int]]:
    """The victim's initiation stream and any installed keys."""
    if method == "keyed":
        stream = initiation_stream("keyed", VICTIM_PID, ADDR_A, ADDR_B,
                                   SIZE, key=SECRET_KEY, ctx_id=0)
        return stream, {0: SECRET_KEY}
    if method in ("extshadow", "iommu", "iommu_noshootdown"):
        # iommu: identity IOVA maps (hunt_setup_for) make the stream's
        # virtual addresses coincide with A and B.
        stream = initiation_stream(method, VICTIM_PID, ADDR_A,
                                   ADDR_B, SIZE, ctx_id=0)
        return stream, {}
    if method in ("capio", "capio_noepoch"):
        # Capability 1 covers [A, B] for the victim; psrc/pdst are byte
        # offsets against its base.
        stream = initiation_stream(
            method, VICTIM_PID, 0, PAGE_SIZE, SIZE, ctx_id=0,
            src_token=_cap_word(1, CAP_NONCE_VICTIM, arg_is_dst=False),
            dst_token=_cap_word(1, CAP_NONCE_VICTIM, arg_is_dst=True))
        return stream, {}
    return initiation_stream(method, VICTIM_PID, ADDR_A, ADDR_B,
                             SIZE), {}


def hunt_setup_for(method: str) -> Tuple[SetupOp, ...]:
    """Kernel-side setup history composed into every hunt candidate.

    The modern methods only mean anything against configured state, and
    the interesting state includes a *revoked* grant: the IOMMU hunts
    get a transient IOVA window onto the victim's B (mapped, IOTLB-
    warmed, unmapped), the capio hunts a capability over B minted for
    the adversary and then epoch-revoked.  The hardened variants must
    shrug both off; the weakened ones are expected to fall to them.
    """
    if method in ("iommu", "iommu_noshootdown"):
        return (
            SetupOp("iommu-map", (0, ADDR_A, ADDR_A, True)),
            SetupOp("iommu-map", (0, ADDR_B, ADDR_B, True)),
            SetupOp("iommu-map", (1, ADDR_C, ADDR_C, True)),
            SetupOp("iommu-map", (1, ADDR_FOO, ADDR_FOO, True)),
            SetupOp("iommu-map", (1, STALE_IOVA, ADDR_B, True)),
            SetupOp("iommu-warm", (1, STALE_IOVA)),
            SetupOp("iommu-unmap", (1, STALE_IOVA)),
        )
    if method in ("capio", "capio_noepoch"):
        return (
            SetupOp("cap-mint", (1, 0, VICTIM_PID, ADDR_A, 2 * PAGE_SIZE,
                                 True, True, CAP_NONCE_VICTIM)),
            SetupOp("cap-mint", (2, 1, ADVERSARY_PID, ADDR_C, PAGE_SIZE,
                                 True, True, CAP_NONCE_ADVERSARY)),
            SetupOp("cap-mint", (3, 1, ADVERSARY_PID, ADDR_B, PAGE_SIZE,
                                 True, True, CAP_NONCE_STALE)),
            SetupOp("cap-revoke", (3,)),
        )
    return ()


def adversary_profile_for(method: str) -> AdversaryProfile:
    """The strongest MMU-legal adversary the method faces.

    * keyed: the shadow page is shared, so the adversary may store —
      but only *wrong-key* words (the true key is a 60-bit secret);
    * extshadow: the adversary addresses its **own** context (the OS
      maps one context page per process — it cannot name the victim's);
    * iommu family: explicit IOVA vocabulary — its own C (store and
      load), the victim's "public" A, and the since-revoked stale IOVA
      window (see :func:`hunt_setup_for`);
    * capio family: explicit token vocabulary — its own capability 2
      (src and dst tokens), the stale epoch-0 destination token of
      revoked capability 3, and its context-page size/fire ops.  The
      victim's nonce is a secret: no capability-1 token ever appears;
    * everything else: the standard profile (owns C and FOO, reads A).
    """
    if method == "keyed":
        from ...hw.dma.protocols.keyed import (
            ARG_DESTINATION,
            ARG_SOURCE,
            pack_key_word,
        )

        guesses = (0x1, SECRET_KEY ^ (1 << 13))
        words = tuple(pack_key_word(guess, 0, arg)
                      for guess in guesses
                      for arg in (ARG_SOURCE, ARG_DESTINATION))
        return standard_profile(extra_words=words)
    if method == "extshadow":
        return standard_profile(ctx_id=1)
    if method in ("iommu", "iommu_noshootdown"):
        base = standard_profile(ctx_id=1)
        vocab = (
            AccessSpec(ADVERSARY_PID, "store", ADDR_C, SIZE, ctx_id=1),
            AccessSpec(ADVERSARY_PID, "store", STALE_IOVA, SIZE, ctx_id=1),
            AccessSpec(ADVERSARY_PID, "load", ADDR_C, ctx_id=1),
            AccessSpec(ADVERSARY_PID, "load", ADDR_A, ctx_id=1),
        )
        return AdversaryProfile(pid=base.pid, rights=base.rights,
                                ctx_id=1, vocabulary=vocab, method=method)
    if method in ("capio", "capio_noepoch"):
        base = standard_profile(ctx_id=1)
        vocab = (
            AccessSpec(ADVERSARY_PID, "store", 0,
                       _cap_word(2, CAP_NONCE_ADVERSARY, arg_is_dst=False),
                       ctx_id=1),
            AccessSpec(ADVERSARY_PID, "store", 0,
                       _cap_word(2, CAP_NONCE_ADVERSARY, arg_is_dst=True),
                       ctx_id=1),
            AccessSpec(ADVERSARY_PID, "store", 0,
                       _cap_word(3, CAP_NONCE_STALE, arg_is_dst=True),
                       ctx_id=1),
            AccessSpec(ADVERSARY_PID, "ctx-store", 0, SIZE, ctx_id=1),
            AccessSpec(ADVERSARY_PID, "ctx-load", 0, ctx_id=1),
        )
        return AdversaryProfile(pid=base.pid, rights=base.rights,
                                ctx_id=1, vocabulary=vocab, method=method)
    return standard_profile()


def compose_scenario(method: str, victim: List[AccessSpec],
                     keys: Dict[int, int], profile: AdversaryProfile,
                     adversary: Sequence[AccessSpec],
                     tag: str) -> Scenario:
    """One candidate scenario: victim stream vs a synthesized stream."""
    return Scenario(
        name=f"hunt-{method}-{tag}",
        method=method,
        streams=[list(victim), list(adversary)],
        rights={
            VICTIM_PID: Rights.over(write_pages=[ADDR_A, ADDR_B]),
            profile.pid: profile.rights,
        },
        intents=[ProcessIntent(VICTIM_PID, ADDR_A, ADDR_B, SIZE)],
        keys=dict(keys),
        setup=hunt_setup_for(method),
    )


# ----------------------------------------------------------------------
# the bandit
# ----------------------------------------------------------------------


class _Bandit:
    """(recognizer state label, vocab index) -> advancement statistics."""

    def __init__(self) -> None:
        self.arms: Dict[Tuple[str, int], List[int]] = {}

    def credit(self, label: str, index: int, advanced: bool) -> None:
        stats = self.arms.setdefault((label, index), [0, 0])
        stats[0] += 1
        if advanced:
            stats[1] += 1

    def vocab_scores(self, n: int) -> List[float]:
        """Per-vocab-index scores aggregated over all state labels.

        Laplace-smoothed advancement rate: untried accesses score 0.5,
        so nothing starves before the bandit has data.
        """
        tries = [0] * n
        advances = [0] * n
        for (_, index), (t, a) in self.arms.items():
            tries[index] += t
            advances[index] += a
        return [(1 + advances[i]) / (2 + tries[i]) for i in range(n)]


def _state_label(harness) -> str:
    label = getattr(harness.protocol, "state_label", None)
    return label() if callable(label) else "-"


def _probe(harness, victim: Sequence[AccessSpec],
           accesses: Sequence[AccessSpec], indices: Sequence[int],
           bandit: _Bandit) -> None:
    """Replay victim prefixes + the candidate, crediting bandit arms.

    For every split point of the victim stream, deliver the victim
    prefix then the candidate's accesses one at a time, recording for
    each (state label before, vocab index) whether the recognizer's
    label changed — the signal that this access *participates in* the
    pattern the recognizer is matching.

    The prefixes share one walk: the victim's accesses are delivered
    once each, the candidate pass at each split is undone through the
    harness's journal back to that split's mark, and the harness ends
    at the state it started in.
    """
    root = harness.snapshot()
    for split in range(len(victim) + 1):
        if split:
            harness.deliver(victim[split - 1])
        mark = harness.snapshot()
        for access, index in zip(accesses, indices):
            before = _state_label(harness)
            harness.deliver(access)
            bandit.credit(before, index,
                          advanced=_state_label(harness) != before)
        harness.restore(mark)
    harness.restore(root)


# ----------------------------------------------------------------------
# the hunt
# ----------------------------------------------------------------------


def hunt_method(method: str, config: HuntConfig,
                tracer: Optional[SpanTracer] = None,
                profiler: Optional[PhaseProfiler] = None) -> HuntReport:
    """Search for a counterexample against one initiation method.

    Stops at the first violating candidate (then optionally shrinks it),
    when the DFS space up to ``max_stream_len`` is exhausted, or when
    the budget runs out — whichever comes first.
    """
    started = time.monotonic()
    deadline = (None if config.budget_s is None
                else started + config.budget_s)
    rng = make_rng(config.seed, f"hunt/{method}")
    report = HuntReport(method=method, seed=config.seed)

    victim, keys = _victim_setup(method)
    profile = adversary_profile_for(method)
    vocab = access_vocabulary(profile)
    bandit = _Bandit()

    # One reusable harness for bandit probes (probes never touch the
    # checker's own harness, and each leaves this one as built).
    probe_scenario = compose_scenario(method, victim, keys, profile,
                                      [], "probe")
    probe_harness = make_harness(probe_scenario)

    seen: Set[Tuple[int, ...]] = set()
    # DFS stack of partial streams (tuples of vocab indices); children
    # are pushed in ascending score so the best-scored pops first.
    stack: List[Tuple[int, ...]] = [
        (i,) for i in _ranked(bandit, len(vocab), reverse=True)]

    span = (tracer.begin("hunt.method", track="hunt", method=method)
            if tracer is not None else None)
    try:
        while True:
            if deadline is not None and time.monotonic() > deadline:
                break
            if (config.max_candidates is not None
                    and report.candidates >= config.max_candidates):
                break
            explore = (config.explore_ratio > 0
                       and rng.random() < config.explore_ratio)
            if explore:
                scores = bandit.vocab_scores(len(vocab))
                candidate = random_stream(rng, vocab,
                                          config.max_stream_len,
                                          weights=scores)
                if candidate in seen:
                    report.duplicates += 1
                    continue
            elif stack:
                candidate = stack.pop()
                # Children go on the stack even when the random explorer
                # beat us to this node — exhaustion must never prune.
                if len(candidate) < config.max_stream_len:
                    for child in _ranked(bandit, len(vocab)):
                        stack.append(candidate + (child,))
                if candidate in seen:
                    continue
            else:
                # DFS space exhausted; random draws can only duplicate.
                report.exhausted = True
                break
            seen.add(candidate)
            accesses = [vocab[i] for i in candidate]
            scenario = compose_scenario(method, victim, keys, profile,
                                        accesses,
                                        tag=str(report.candidates))
            stats = CheckStats()
            if profiler is not None:
                with profiler.phase("check"):
                    result = check_scenario_incremental(
                        scenario, max_examples=1,
                        max_interleavings=config.max_interleavings,
                        stats=stats)
            else:
                result = check_scenario_incremental(
                    scenario, max_examples=1,
                    max_interleavings=config.max_interleavings,
                    stats=stats)
            report.candidates += 1
            report.interleavings += result.total_interleavings
            report.accesses_delivered += stats.accesses_delivered
            if result.attack_found:
                order, violations = result.examples[0]
                report.found = True
                report.adversary_stream = tuple(accesses)
                report.counterexample = order
                report.props = tuple(sorted({v.prop for v in violations}))
                if config.shrink:
                    if profiler is not None:
                        with profiler.phase("shrink"):
                            report.shrunk = shrink_counterexample(
                                scenario, order)
                    else:
                        report.shrunk = shrink_counterexample(
                            scenario, order)
                break
            if profiler is not None:
                with profiler.phase("probe"):
                    _probe(probe_harness, victim, accesses, candidate,
                           bandit)
            else:
                _probe(probe_harness, victim, accesses, candidate, bandit)
    finally:
        report.elapsed_s = time.monotonic() - started
        if tracer is not None and span is not None:
            tracer.end(span, found=report.found,
                       candidates=report.candidates)
    return report


def _ranked(bandit: _Bandit, n: int, reverse: bool = False) -> List[int]:
    """Vocab indices by ascending bandit score (ties by index).

    Ascending is the push order that makes the best-scored index pop
    first from the DFS stack; ``reverse=True`` gives descending for
    direct iteration.
    """
    scores = bandit.vocab_scores(n)
    order = sorted(range(n), key=lambda i: (scores[i], -i))
    if reverse:
        order.reverse()
    return order


def run_hunt(methods: Optional[Sequence[str]] = None,
             config: Optional[HuntConfig] = None,
             tracer: Optional[SpanTracer] = None,
             profiler: Optional[PhaseProfiler] = None,
             ) -> List[HuntReport]:
    """Hunt every (or the given) method; one report per method."""
    chosen = tuple(methods) if methods is not None else HUNT_METHODS
    cfg = config if config is not None else HuntConfig()
    return [hunt_method(m, cfg, tracer=tracer, profiler=profiler)
            for m in chosen]
