"""Property-based tests (hypothesis) for the telemetry trend windows.

``FleetTelemetry`` keeps no raw latencies: each window's p50/p95/p99
come from a log-bucketed histogram.  This suite checks what the serving
loop no longer does — that every window's histogram percentiles agree
with the exact sample-interpolated percentiles within the histogram's
provable error bound (``LatencyHistogram.verify_against_samples``), and
that the trend point reports exactly those histogram percentiles.

Latencies are drawn as integer picoseconds, as a shard measures them,
from the histogram's ``min_value_us`` (10 ns) up to one second.
Smaller samples clamp into bucket 0, where the bound does not apply; a
service request never completes that fast.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.requests import (
    OUTCOME_ABORTED,
    OUTCOME_COMPLETED,
    OUTCOME_REJECTED,
    Completion,
    Request,
)
from repro.service.telemetry import FleetTelemetry
from repro.units import to_us

QUANTILES = (0.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0)

sample = st.tuples(
    st.integers(min_value=10_000, max_value=10**12),
    st.sampled_from((OUTCOME_COMPLETED, OUTCOME_ABORTED, OUTCOME_REJECTED)))


@settings(max_examples=200, deadline=None)
@given(windows=st.lists(st.lists(sample, max_size=80),
                        min_size=1, max_size=5))
def test_every_window_histogram_is_within_bound_of_exact(windows):
    telemetry = FleetTelemetry(window_ticks=1)
    for tick, window in enumerate(windows, start=1):
        exact = []
        for req_id, (latency_ps, outcome) in enumerate(window):
            completion = Completion(
                Request(tenant=f"t{req_id % 7}", req_id=req_id),
                ok=outcome == OUTCOME_COMPLETED, outcome=outcome,
                latency_us=to_us(latency_ps))
            telemetry.record(completion)
            if outcome != OUTCOME_REJECTED:
                exact.append(completion.latency_us)
        hist = telemetry._window_hist
        point = telemetry.close_window(tick)
        assert hist.verify_against_samples(exact, qs=QUANTILES) == []
        assert (point.p50_us, point.p95_us, point.p99_us) == tuple(
            round(hist.percentile(q), 3) for q in (50.0, 95.0, 99.0))
        assert point.rejected == sum(
            outcome == OUTCOME_REJECTED for _, outcome in window)
