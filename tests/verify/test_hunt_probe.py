"""The hunt's bandit credits come from the candidate check's own walk.

For every split point of the victim stream and every candidate access,
the check reports whether that access moved the recognizer's state
label after the victim prefix and the candidate's earlier accesses.
Those credits must build exactly the arms that rebuilding the harness
at every split point and replaying the candidate builds, and a harness
shared by every check of a method must end each check as it was built,
with every result and counter equal to a fresh-harness check's."""

from itertools import product

import pytest

from repro.obs.profile import PhaseProfiler
from repro.verify.incremental import (
    SMALL_SCENARIO_CUTOVER,
    CheckStats,
    check_scenario_incremental,
)
from repro.verify.interleave import interleaving_count
from repro.verify.model_check import make_harness
from repro.verify.synth.generator import access_vocabulary
from repro.verify.synth.search import (
    HUNT_METHODS,
    HuntConfig,
    _Bandit,
    _victim_setup,
    adversary_profile_for,
    compose_scenario,
)

#: Check options each variant runs the harvest under; the profiler one
#: is built per check.
VARIANTS = ("plain", "profiler")


def options(variant):
    if variant == "profiler":
        return {"profiler": PhaseProfiler()}
    return {}


def state_label(harness) -> str:
    return harness.protocol.state_label()


def probe_from_reset(harness, victim, accesses, indices, bandit) -> None:
    """The reference probe: reset the harness and re-deliver the victim
    prefix at every split point, then the candidate."""
    for split in range(len(victim) + 1):
        harness.reset()
        for access in victim[:split]:
            harness.deliver(access)
        for access, index in zip(accesses, indices):
            before = state_label(harness)
            harness.deliver(access)
            bandit.credit(before, index,
                          advanced=state_label(harness) != before)


def root_state(harness) -> tuple:
    engine = harness.engine
    return (harness.fingerprint(), harness.sim.now, harness.sim.pending,
            tuple(engine.initiations), state_label(harness),
            harness.ram.read(0, harness.ram_size))


def candidate_set(n: int) -> list:
    """Every one- and two-access candidate, and longer ones over a
    corner of the vocabulary."""
    return ([(i,) for i in range(n)]
            + list(product(range(n), repeat=2))
            + list(product(range(min(n, 3)), repeat=3))
            + list(product(range(min(n, 2)), repeat=4)))


@pytest.mark.parametrize("method", HUNT_METHODS)
def test_probe_credits_what_a_from_reset_replay_credits(method):
    victim, keys = _victim_setup(method)
    profile = adversary_profile_for(method)
    vocab = access_vocabulary(profile)
    empty = compose_scenario(method, victim, keys, profile, [], "root")
    root = root_state(make_harness(empty))
    assert root[0] is not None
    candidates = candidate_set(len(vocab))

    # The set reaches every regime the hunt's candidates reach: fast
    # replay always, the DFS (whose first leaf ends in a forced tail of
    # the candidate) whenever the hunt's longest candidate gets there.
    small = {interleaving_count([len(victim), len(c)])
             < SMALL_SCENARIO_CUTOVER for c in candidates}
    hunt_reaches_dfs = interleaving_count(
        [len(victim), HuntConfig().max_stream_len]) >= SMALL_SCENARIO_CUTOVER
    assert small == ({True, False} if hunt_reaches_dfs else {True})

    reference = _Bandit()
    replay = make_harness(empty)
    for candidate in candidates:
        probe_from_reset(replay, victim, [vocab[i] for i in candidate],
                         candidate, reference)

    for variant in VARIANTS:
        shared = make_harness(empty)
        harvested = _Bandit()
        batched = 0
        for candidate in candidates:
            scenario = compose_scenario(
                method, victim, keys, profile,
                [vocab[i] for i in candidate], "candidate")
            credits, stats, fresh_stats = [], CheckStats(), CheckStats()
            result = check_scenario_incremental(
                scenario, max_examples=1, stats=stats, harness=shared,
                label_credits=credits, **options(variant))
            fresh = check_scenario_incremental(
                scenario, max_examples=1, stats=fresh_stats,
                **options(variant))
            assert result == fresh, (variant, candidate)
            assert stats == fresh_stats, (variant, candidate)
            assert root_state(shared) == root, (variant, candidate)
            # One credit per (split, candidate access).
            assert len(credits) == (len(victim) + 1) * len(candidate)
            for label, position, advanced in credits:
                harvested.credit(label, candidate[position], advanced)
            batched += stats.batched_deliveries
        assert harvested.arms == reference.arms, variant
        assert (batched > 0) == hunt_reaches_dfs, variant


def test_label_credits_need_two_streams():
    from repro.errors import VerificationError

    victim, keys = _victim_setup("repeated3")
    profile = adversary_profile_for("repeated3")
    scenario = compose_scenario("repeated3", victim, keys, profile, [],
                                "root")
    scenario.streams.append([])
    with pytest.raises(VerificationError):
        check_scenario_incremental(scenario, label_credits=[])
