"""The hunt's bandit probe walks the victim's prefixes through journal
marks, crediting exactly what rebuilding the harness at every split
point credits, and leaves its harness as it found it."""

from itertools import product

import pytest

from repro.verify.model_check import make_harness
from repro.verify.synth.generator import access_vocabulary
from repro.verify.synth.search import (
    HUNT_METHODS,
    _Bandit,
    _probe,
    _state_label,
    _victim_setup,
    adversary_profile_for,
    compose_scenario,
)


def probe_from_reset(harness, victim, accesses, indices, bandit) -> None:
    """The reference probe: reset the harness and re-deliver the victim
    prefix at every split point, then the candidate."""
    for split in range(len(victim) + 1):
        harness.reset()
        for access in victim[:split]:
            harness.deliver(access)
        for access, index in zip(accesses, indices):
            before = _state_label(harness)
            harness.deliver(access)
            bandit.credit(before, index,
                          advanced=_state_label(harness) != before)


def root_state(harness) -> tuple:
    engine = harness.engine
    return (harness.fingerprint(), harness.sim.now, harness.sim.pending,
            tuple(engine.initiations), _state_label(harness),
            harness.ram.read(0, harness.ram_size))


@pytest.mark.parametrize("method", HUNT_METHODS)
def test_probe_credits_what_a_from_reset_replay_credits(method):
    victim, keys = _victim_setup(method)
    profile = adversary_profile_for(method)
    vocab = access_vocabulary(profile)
    scenario = compose_scenario(method, victim, keys, profile, [], "probe")
    harness = make_harness(scenario)
    reference = make_harness(scenario)
    root = root_state(make_harness(scenario))
    assert root[0] is not None
    n = len(vocab)
    # Every one- and two-access candidate, and longer ones over a corner
    # of the vocabulary.
    candidates = ([(i,) for i in range(n)]
                  + list(product(range(n), repeat=2))
                  + list(product(range(min(n, 3)), repeat=3))
                  + list(product(range(min(n, 2)), repeat=4)))
    journaled, replayed = _Bandit(), _Bandit()
    for candidate in candidates:
        accesses = [vocab[i] for i in candidate]
        _probe(harness, victim, accesses, candidate, journaled)
        probe_from_reset(reference, victim, accesses, candidate, replayed)
        assert root_state(harness) == root
    assert journaled.arms == replayed.arms
