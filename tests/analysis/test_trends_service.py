"""Service-trend primitives in analysis.trends."""

import pytest

from repro.analysis.trends import (
    ServiceTrendPoint,
    TrendHistory,
    compare_service_reports,
    jain_index,
    percentile,
    service_trend_report,
)


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 99.0) == 0.0

    def test_single_value(self):
        assert percentile([5.0], 50.0) == 5.0

    def test_interpolates(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 0.0) == 10.0
        assert percentile(values, 100.0) == 40.0
        assert percentile(values, 50.0) == pytest.approx(25.0)

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0


class TestJainIndex:
    def test_perfectly_fair(self):
        assert jain_index([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_single_hog(self):
        assert jain_index([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_empty_and_zero_are_fair(self):
        assert jain_index([]) == 1.0
        assert jain_index([0, 0]) == 1.0


def make_point(t_s, goodput=10.0, **overrides):
    defaults = dict(t_s=t_s, completed=10, failed=0, rejected=0,
                    bytes_moved=10_000,
                    goodput_mbytes_per_s=goodput, p50_us=10.0,
                    p95_us=20.0, p99_us=30.0, retries=1, faults=0,
                    fairness=1.0, queue_depth=0.5)
    defaults.update(overrides)
    return ServiceTrendPoint(**defaults)


class TestTrendHistory:
    def test_bounded_retention(self):
        history = TrendHistory(max_points=3)
        for i in range(5):
            history.append(make_point(float(i)))
        assert len(history.points) == 3
        assert history.points[0].t_s == 2.0

    def test_point_serializes(self):
        data = make_point(1.0).to_dict()
        assert data["t_s"] == 1.0
        assert data["goodput_mbytes_per_s"] == 10.0


class TestServiceTrendReport:
    def test_empty_report(self):
        report = service_trend_report([])
        assert report["kind"] == "service_trend"
        assert report["summary"]["windows"] == 0
        assert report["stalls"] == []

    def test_summary_aggregates(self):
        points = [make_point(float(i)) for i in range(4)]
        report = service_trend_report(points, meta={"seed": 7})
        summary = report["summary"]
        assert summary["windows"] == 4
        assert summary["completed"] == 40
        assert summary["median_goodput_mbytes_per_s"] == 10.0
        assert report["meta"] == {"seed": 7}
        assert len(report["windows_series"]) == 4

    def test_stall_detection(self):
        points = [make_point(float(i)) for i in range(4)]
        points.append(make_point(4.0, goodput=1.0))
        report = service_trend_report(points)
        assert report["stalls"] == [4.0]


def service_report(goodput=100.0, p99=50.0, wrong=0, verdict="RECOVERED"):
    return {
        "benchmark": "service_soak",
        "goodput_mbytes_per_s": goodput,
        "latency_us": {"p99": p99},
        "requests": {"wrong_transfers": wrong},
        "faults": {"verdict": verdict},
    }


class TestCompareServiceReports:
    def test_identical_reports_pass(self):
        report = service_report()
        assert compare_service_reports(report, report) == []

    def test_small_drift_passes(self):
        assert compare_service_reports(
            service_report(), service_report(goodput=95.0, p99=54.0)) == []

    def test_goodput_regression_fails(self):
        failures = compare_service_reports(
            service_report(), service_report(goodput=85.0))
        assert any("goodput" in f for f in failures)

    def test_p99_regression_fails(self):
        failures = compare_service_reports(
            service_report(), service_report(p99=60.0))
        assert any("p99" in f for f in failures)

    def test_wrong_transfers_always_fatal(self):
        failures = compare_service_reports(
            service_report(), service_report(wrong=1))
        assert any("wrong-page" in f for f in failures)

    def test_unsafe_verdict_fatal(self):
        failures = compare_service_reports(
            service_report(), service_report(verdict="UNSAFE"))
        assert any("UNSAFE" in f for f in failures)

    def test_thresholds_are_tunable(self):
        assert compare_service_reports(
            service_report(), service_report(goodput=85.0),
            max_goodput_drop=0.20) == []
