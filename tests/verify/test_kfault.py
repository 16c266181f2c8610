"""k-fault campaigns: combinations of faults on the hardened methods.

Tier-1 keeps the exhaustive k=2 sweeps to the small-stream methods
(shrimp1, extshadow); the full hardened-method k=2 soak runs in the
scheduled CI job via ``repro hunt --k-faults 2``.
"""

import pytest

from repro.errors import VerificationError
from repro.faults.plan import BITFLIP, DROP, REORDER
from repro.verify.adversary import pair_race_scenario
from repro.verify.faulted import FaultSpec, enumerate_single_faults
from repro.verify.synth import (
    apply_fault_combo,
    run_k_fault_campaign,
    verify_method_under_k_faults,
)
from repro.verify.synth.kfault import _combination_count


def race():
    scenario = pair_race_scenario("extshadow")
    scenario.page_bounded = True
    scenario.check_truthfulness = False
    return scenario


class TestApplyFaults:
    """Multi-fault application: descending order, feasibility checks."""

    def test_two_drops_apply_in_descending_index_order(self):
        scenario = race()
        # Dropping index 0 first would shift index 1 off the stream's
        # end; applied highest index first, both drops land.
        combo = (FaultSpec(DROP, 0, 0), FaultSpec(DROP, 0, 1))
        variant = apply_fault_combo(scenario, combo)
        assert variant.streams[0] == []
        assert variant.streams[1] == scenario.streams[1]
        assert variant.check_truthfulness is False

    def test_drop_then_reorder_without_partner_is_infeasible(self):
        scenario = race()
        # Reorder at index 0 needs index 1, which the drop removed.
        combo = (FaultSpec(REORDER, 0, 0), FaultSpec(DROP, 0, 1))
        assert apply_fault_combo(scenario, combo) is None

    def test_same_slot_structural_faults_are_infeasible(self):
        scenario = race()
        combo = (FaultSpec(DROP, 0, 0), FaultSpec(BITFLIP, 0, 0, bit=1))
        assert apply_fault_combo(scenario, combo) is None

    def test_same_slot_distinct_bitflips_commute(self):
        scenario = race()
        combo = (FaultSpec(BITFLIP, 0, 0, bit=0),
                 FaultSpec(BITFLIP, 0, 0, bit=4))
        variant = apply_fault_combo(scenario, combo)
        assert variant is not None
        original = scenario.streams[0][0].data
        assert variant.streams[0][0].data == original ^ 0b10001

    def test_same_slot_same_bit_is_infeasible(self):
        scenario = race()
        combo = (FaultSpec(BITFLIP, 0, 0, bit=4),
                 FaultSpec(BITFLIP, 0, 0, bit=4))
        assert apply_fault_combo(scenario, combo) is None

    def test_feasible_combo_applies_both(self):
        scenario = race()
        combo = (FaultSpec(DROP, 0, 0), FaultSpec(DROP, 1, 0))
        variant = apply_fault_combo(scenario, combo)
        assert len(variant.streams[0]) == 1
        assert len(variant.streams[1]) == 1


class TestExhaustiveK2:
    """k=2 is exhaustive: every feasible pair is model-checked."""

    @pytest.mark.parametrize("method", ["shrimp1", "extshadow"])
    def test_hardened_method_safe_under_two_faults(self, method):
        report = verify_method_under_k_faults(method, k=2)
        assert report.verdict == "SAFE", report.summary()
        assert not report.sampled
        assert (report.combos_checked + report.combos_skipped
                == report.combos_total)
        assert report.combos_total == _combination_count(
            _n_singles(method), 2)

    def test_extshadow_combo_space_size(self):
        singles = enumerate_single_faults(race())
        report = verify_method_under_k_faults("extshadow", k=2)
        assert report.combos_total == _combination_count(len(singles), 2)

    def test_k1_matches_single_fault_space(self):
        singles = enumerate_single_faults(race())
        report = verify_method_under_k_faults("extshadow", k=1)
        assert report.combos_total == len(singles)
        assert report.combos_skipped == 0
        assert report.verdict == "SAFE"

    def test_broken_baseline_is_unsafe_baseline(self):
        report = verify_method_under_k_faults("repeated3", k=1,
                                              max_combos=5)
        assert report.verdict == "UNSAFE-BASELINE"
        assert report.acceptable  # hardening is moot, not regressed


class TestSampledSoak:
    """k>=3 samples the space, deterministically per seed."""

    def test_k3_soak_is_sampled_and_safe(self):
        report = verify_method_under_k_faults("shrimp1", k=3,
                                              max_combos=25, seed=11)
        assert report.sampled
        assert report.verdict == "SAFE"
        assert report.combos_checked + report.combos_skipped <= 25

    def test_same_seed_same_sample(self):
        kwargs = dict(k=3, max_combos=20, seed=5)
        first = verify_method_under_k_faults("shrimp1", **kwargs)
        second = verify_method_under_k_faults("shrimp1", **kwargs)
        assert first.to_dict()["combos_checked"] == (
            second.to_dict()["combos_checked"])
        assert first.interleavings_checked == second.interleavings_checked

    def test_explicit_cap_below_space_turns_sampling_on(self):
        report = verify_method_under_k_faults("extshadow", k=2,
                                              max_combos=10, seed=2)
        assert report.sampled
        assert report.combos_checked + report.combos_skipped <= 10

    def test_invalid_k_rejected(self):
        with pytest.raises(VerificationError):
            verify_method_under_k_faults("shrimp1", k=0)


class TestCampaign:
    """The multi-method campaign and its acceptance criterion."""

    def test_campaign_over_small_methods(self):
        reports = run_k_fault_campaign(["shrimp1", "extshadow"], k=2)
        assert set(reports) == {"shrimp1", "extshadow"}
        assert all(r.verdict == "SAFE" for r in reports.values())
        assert all(r.acceptable for r in reports.values())

    def test_report_dict_round_trips_to_json(self):
        import json

        report = verify_method_under_k_faults("shrimp1", k=2)
        payload = json.dumps(report.to_dict())
        assert "SAFE" in payload
        assert "exhaustive" not in payload  # mode lives in summary()
        assert "sampled" in payload

    def test_summary_mentions_mode_and_counts(self):
        report = verify_method_under_k_faults("shrimp1", k=2)
        text = report.summary()
        assert "exhaustive" in text
        assert "k=2" in text


def _n_singles(method):
    scenario = pair_race_scenario(method)
    scenario.page_bounded = True
    scenario.check_truthfulness = False
    return len(enumerate_single_faults(scenario))
