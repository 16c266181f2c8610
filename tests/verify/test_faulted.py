"""Model-checker level fault verification: the taxonomy in
repro.verify.faulted, checked by the k-fault campaign at k=1."""

import pytest

from repro.faults.plan import BITFLIP, DELAY, DROP, DUPLICATE, REORDER
from repro.verify.adversary import pair_race_scenario
from repro.verify.faulted import (
    FAULT_HARDENED_METHODS,
    VERIFIABLE_METHODS,
    FaultSpec,
    apply_fault,
    enumerate_single_faults,
    method_fault_scenarios,
)
from repro.verify.incremental import check_scenario_incremental
from repro.verify.synth import (
    run_k_fault_campaign,
    verify_method_under_k_faults,
)

#: ``repro faults``'s rows: (verdict, fault variants, interleavings).
SINGLE_FAULT_ROWS = {
    "shrimp1": ("SAFE", 16, 34),
    "shrimp2": ("UNSAFE-BASELINE", 24, 154),
    "flash": ("UNSAFE-BASELINE", 24, 154),
    "pal": ("UNSAFE-BASELINE", 24, 154),
    "keyed": ("SAFE", 64, 4718),
    "extshadow": ("SAFE", 24, 154),
    "repeated3": ("UNSAFE-BASELINE", 32, 725),
    "repeated4": ("UNSAFE-BASELINE", 52, 3883),
    "repeated5": ("SAFE", 60, 16212),
    "iommu": ("SAFE", 24, 160),
    "iommu_noshootdown": ("UNSAFE-BASELINE", 24, 160),
    "capio": ("SAFE", 64, 4788),
    "capio_noepoch": ("UNSAFE-BASELINE", 64, 4788),
}


def race(method="keyed", page_bounded=True):
    scenario = pair_race_scenario(method)
    scenario.page_bounded = page_bounded
    scenario.check_truthfulness = False
    return scenario


class TestFaultSpec:
    def test_label_without_bit(self):
        assert FaultSpec(DROP, 0, 2).label() == "drop[s0.a2]"

    def test_label_with_bit(self):
        assert FaultSpec(BITFLIP, 1, 2, bit=13).label() == "bitflip[s1.a2.b13]"


class TestEnumeration:
    def test_every_kind_is_represented(self):
        kinds = {s.kind for s in enumerate_single_faults(race())}
        assert kinds == {DROP, DUPLICATE, REORDER, DELAY, BITFLIP}

    def test_specs_are_unique(self):
        specs = enumerate_single_faults(race())
        assert len(specs) == len(set(specs))

    def test_every_access_can_be_dropped(self):
        scenario = race()
        drops = [s for s in enumerate_single_faults(scenario)
                 if s.kind == DROP]
        assert len(drops) == sum(len(st) for st in scenario.streams)


class TestApplyFault:
    def test_drop_removes_one_access(self):
        scenario = race()
        variant = apply_fault(scenario, FaultSpec(DROP, 0, 0))
        assert len(variant.streams[0]) == len(scenario.streams[0]) - 1
        assert variant.streams[0][0] == scenario.streams[0][1]

    def test_duplicate_inserts_a_copy(self):
        scenario = race()
        variant = apply_fault(scenario, FaultSpec(DUPLICATE, 0, 0))
        assert variant.streams[0][0] == variant.streams[0][1]

    def test_reorder_swaps_adjacent_accesses(self):
        scenario = race()
        variant = apply_fault(scenario, FaultSpec(REORDER, 0, 0))
        assert variant.streams[0][0] == scenario.streams[0][1]
        assert variant.streams[0][1] == scenario.streams[0][0]

    def test_delay_migrates_to_stream_end(self):
        scenario = race()
        variant = apply_fault(scenario, FaultSpec(DELAY, 0, 0))
        assert variant.streams[0][-1] == scenario.streams[0][0]

    def test_bitflip_perturbs_the_data_word(self):
        scenario = race()
        spec = next(s for s in enumerate_single_faults(scenario)
                    if s.kind == BITFLIP)
        variant = apply_fault(scenario, spec)
        original = scenario.streams[spec.stream][spec.index]
        flipped = variant.streams[spec.stream][spec.index]
        assert flipped.data == original.data ^ (1 << spec.bit)

    def test_variant_never_checks_truthfulness(self):
        scenario = race()
        variant = apply_fault(scenario, FaultSpec(DROP, 0, 0))
        assert not variant.check_truthfulness
        assert variant.page_bounded
        assert "drop[s0.a0]" in variant.name

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            apply_fault(race(), FaultSpec("melt", 0, 0))


class TestVerdicts:
    @pytest.mark.parametrize("method", FAULT_HARDENED_METHODS)
    def test_hardened_methods_survive_every_single_fault(self, method):
        report = verify_method_under_k_faults(method, k=1)
        assert report.verdict == "SAFE"
        assert report.combos_checked > 0
        assert not report.newly_unsafe

    @pytest.mark.parametrize("method", ["repeated3", "repeated4", "shrimp2"])
    def test_known_broken_methods_classify_as_baseline_unsafe(self, method):
        report = verify_method_under_k_faults(method, k=1)
        assert report.verdict == "UNSAFE-BASELINE"
        assert report.acceptable  # fault-hardening is moot, not regressed

    def test_no_method_is_newly_unsafe(self):
        reports = run_k_fault_campaign(VERIFIABLE_METHODS, k=1)
        assert list(reports) == list(VERIFIABLE_METHODS)
        assert {m: (r.verdict, r.combos_checked, r.interleavings_checked)
                for m, r in reports.items()} == SINGLE_FAULT_ROWS
        # No single fault is infeasible, and nothing is sampled at k=1.
        assert all(r.combos_skipped == 0 and not r.sampled
                   for r in reports.values())

    def test_summary_mentions_method_and_verdict(self):
        report = verify_method_under_k_faults("shrimp1", k=1)
        assert "shrimp1" in report.summary()
        assert "SAFE" in report.summary()


class TestPageBoundingIsLoadBearing:
    """Bit 13 (= PAGE_SHIFT) flips a size word past the page boundary.

    Without the engine's page-bounding hardening a single such flip
    turns keyed/extshadow initiation into a cross-page write — exactly
    the NEWLY-UNSAFE class the fault verification exists to catch.
    """

    @pytest.mark.parametrize("method", ["keyed", "extshadow"])
    def test_unbounded_engine_breaks_under_bit13_flip(self, method):
        scenario = race(method, page_bounded=False)
        flips = [s for s in enumerate_single_faults(scenario)
                 if s.kind == BITFLIP and s.bit == 13]
        assert any(
            check_scenario_incremental(
                apply_fault(scenario, spec)).attack_found
            for spec in flips)

    @pytest.mark.parametrize("method", ["keyed", "extshadow"])
    def test_bounded_engine_survives_bit13_flip(self, method):
        scenario = race(method, page_bounded=True)
        flips = [s for s in enumerate_single_faults(scenario)
                 if s.kind == BITFLIP and s.bit == 13]
        assert flips
        for spec in flips:
            result = check_scenario_incremental(apply_fault(scenario, spec))
            assert not result.attack_found


class TestScenarioSelection:
    def test_repeated3_baseline_includes_its_attack_figure(self):
        names = [s.name for s in method_fault_scenarios("repeated3")]
        assert len(names) == 2

    def test_pair_race_is_always_first(self):
        for method in ("keyed", "repeated4"):
            scenarios = method_fault_scenarios(method)
            assert "race" in scenarios[0].name
            assert scenarios[0].page_bounded
            assert not scenarios[0].check_truthfulness
