"""Compare two benchmark JSON reports for CI regression gating.

Usage::

    python benchmarks/compare_bench.py BASELINE.json CANDIDATE.json \
        [--max-regression 0.30]

Two report families are understood, dispatched on content:

**Checker reports** (``scenarios`` list): compares the incremental
checker's orders-per-second for every scenario name present in **both**
reports (the committed baseline is a full run; CI candidates use
``--quick``, which covers a subset).  Exits non-zero when any common
scenario's candidate throughput falls more than ``--max-regression``
(default 30%) below the baseline.  ``--min-speedup`` (default 1.0)
additionally fails the gate when any candidate scenario that reports
both naive and incremental timings has an incremental/naive speedup
below the threshold.  A noise-free count gate also fails it when any
common scenario's ``journal_entries_replayed`` or
``accesses_delivered`` (see :data:`GATED_COUNTS`) rises above the
baseline: both are deterministic, so any rise is a real change in the
work the checker does.

**Table-1 latency reports** (``benchmark == "table1"``, the
``BENCH_table1.json`` schema written by ``bench_table1.py``): compares
per-method simulated initiation latency for every method present in
both reports.  Exits non-zero when any method's candidate latency rises
more than ``--max-regression`` (default 30%) above the baseline, or
when a method with a paper reference value drifts outside 15% of it.
Simulated latencies are deterministic, so this gate only trips on real
cost-model changes.

**Service soak reports** (``benchmark == "service_soak"``, the
``BENCH_service.json`` schema — see ``docs/service.md``): gates on

* aggregate goodput dropping more than ``--max-regression`` below the
  baseline (default 10% for this family),
* p99 completion latency rising more than ``--max-latency-regression``
  (default 10%) above the baseline,
* any wrong-page transfer in the candidate (always fatal),
* a candidate fault-recovery verdict of ``UNSAFE``.

Simulated-time soak metrics are deterministic — the tight 10% margins
are safe because runner noise cannot reach them.

Throughput on shared CI runners is noisy, hence the generous margin on
the wall-clock checker family: that gate exists to catch algorithmic
regressions (an accidental quadratic in the checker), not micro-noise.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "src"))

from repro.analysis.trends import compare_service_reports  # noqa: E402


def is_service_report(report: Dict[str, Any]) -> bool:
    """Whether *report* is a ``BENCH_service.json`` soak report."""
    return report.get("benchmark") == "service_soak"


def compare_service(baseline: Dict[str, Any], candidate: Dict[str, Any],
                    max_goodput_drop: float,
                    max_p99_increase: float) -> List[str]:
    """Print the soak comparison and return failure lines."""
    rows = [
        ("goodput (MB/s)",
         baseline.get("goodput_mbytes_per_s"),
         candidate.get("goodput_mbytes_per_s")),
        ("p99 latency (us)",
         (baseline.get("latency_us") or {}).get("p99"),
         (candidate.get("latency_us") or {}).get("p99")),
        ("completed",
         (baseline.get("requests") or {}).get("completed"),
         (candidate.get("requests") or {}).get("completed")),
        ("wrong-page transfers",
         (baseline.get("requests") or {}).get("wrong_transfers"),
         (candidate.get("requests") or {}).get("wrong_transfers")),
        ("verdict",
         (baseline.get("faults") or {}).get("verdict"),
         (candidate.get("faults") or {}).get("verdict")),
    ]
    for name, base, cand in rows:
        print(f"  {name:24s} base {base!s:>12s}  cand {cand!s:>12s}")
    return compare_service_reports(baseline, candidate,
                                   max_goodput_drop=max_goodput_drop,
                                   max_p99_increase=max_p99_increase)


def is_table1_report(report: Dict[str, Any]) -> bool:
    """Whether *report* is a ``BENCH_table1.json`` latency report."""
    return report.get("benchmark") == "table1"


def compare_table1(baseline: Dict[str, Any], candidate: Dict[str, Any],
                   max_regression: float) -> List[str]:
    """Per-method latency comparison; failure lines when the gate trips."""
    failures: List[str] = []
    base_rows = baseline.get("rows", {})
    cand_rows = candidate.get("rows", {})
    common = sorted(set(base_rows) & set(cand_rows))
    if not common:
        return ["no common methods between baseline and candidate"]
    for method in common:
        base = base_rows[method].get("simulated_us")
        cand = cand_rows[method].get("simulated_us")
        if not base or cand is None:
            continue
        change = (cand - base) / base
        status = "OK"
        if change > max_regression:
            status = "REGRESSION"
            failures.append(
                f"{method}: {cand:.2f} us is {change * 100:.1f}% above "
                f"baseline {base:.2f} us")
        paper = cand_rows[method].get("paper_us")
        if paper and abs(cand - paper) / paper > 0.15:
            status = "PAPER-DRIFT"
            failures.append(
                f"{method}: {cand:.2f} us drifted outside 15% of the "
                f"paper's {paper:.2f} us")
        print(f"  {method:20s} base {base:>8.2f} us  cand {cand:>8.2f} us  "
              f"{change * 100:+6.1f}%  {status}")
    return failures


def load_rates(path: pathlib.Path) -> Dict[str, float]:
    """Scenario name -> incremental orders/s (naive as fallback)."""
    report = json.loads(path.read_text())
    rates: Dict[str, float] = {}
    for entry in report.get("scenarios", []):
        timing = entry.get("incremental") or entry.get("naive") or {}
        rate = timing.get("orders_per_s")
        if rate:
            rates[entry["name"]] = float(rate)
    return rates


#: Deterministic incremental-checker work counters gated against any rise.
GATED_COUNTS = ("journal_entries_replayed", "accesses_delivered")


def load_counts(path: pathlib.Path) -> Dict[Tuple[str, Any], Dict[str, int]]:
    """(scenario name, orders) -> its :data:`GATED_COUNTS` values.

    Keyed on the order count too, because two built-in scenarios share
    a name.
    """
    report = json.loads(path.read_text())
    counts: Dict[Tuple[str, Any], Dict[str, int]] = {}
    for entry in report.get("scenarios", []):
        timing = entry.get("incremental") or {}
        values = {name: timing[name] for name in GATED_COUNTS
                  if name in timing}
        if values:
            counts[(entry["name"], entry.get("orders"))] = values
    return counts


def compare_counts(baseline: Dict[Tuple[str, Any], Dict[str, int]],
                   candidate: Dict[Tuple[str, Any], Dict[str, int]],
                   ) -> List[str]:
    """Failure lines for common scenarios whose gated counts rose."""
    failures: List[str] = []
    for key in sorted(set(baseline) & set(candidate), key=str):
        name, orders = key
        for count, base in baseline[key].items():
            cand = candidate[key].get(count)
            if cand is not None and cand > base:
                failures.append(
                    f"{name} ({orders} orders): {count} rose from "
                    f"{base} to {cand}")
    return failures


def check_speedups(path: pathlib.Path, min_speedup: float) -> List[str]:
    """Failure lines for candidate scenarios slower than the naive oracle.

    Only entries carrying both a "naive" and an "incremental" timing are
    gated (oracle-only and synthesis reports have neither).
    """
    report = json.loads(path.read_text())
    failures: List[str] = []
    for entry in report.get("scenarios", []):
        if "naive" not in entry or "incremental" not in entry:
            continue
        speedup = entry.get("speedup")
        if speedup is not None and speedup < min_speedup:
            failures.append(
                f"{entry['name']}: incremental speedup {speedup}x is "
                f"below the {min_speedup}x floor")
    return failures


def compare(baseline: Dict[str, float], candidate: Dict[str, float],
            max_regression: float) -> List[str]:
    """Human-readable failure lines (empty when the gate passes)."""
    failures: List[str] = []
    common = sorted(set(baseline) & set(candidate))
    if not common:
        return ["no common scenarios between baseline and candidate"]
    for name in common:
        base, cand = baseline[name], candidate[name]
        change = (cand - base) / base
        status = "OK"
        if change < -max_regression:
            status = "REGRESSION"
            failures.append(
                f"{name}: {cand:.1f} orders/s is "
                f"{-change * 100:.1f}% below baseline {base:.1f}")
        print(f"  {name:40s} base {base:>12.1f}  cand {cand:>12.1f}  "
              f"{change * +100:+6.1f}%  {status}")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate CI on checker-benchmark throughput.")
    parser.add_argument("baseline", type=pathlib.Path,
                        help="committed reference report (full run)")
    parser.add_argument("candidate", type=pathlib.Path,
                        help="freshly generated report (usually --quick)")
    parser.add_argument("--max-regression", type=float, default=None,
                        help="allowed fractional slowdown (default 0.30 "
                             "for checker reports, 0.10 for service soak "
                             "reports)")
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="minimum incremental/naive speedup required "
                             "of every candidate scenario (default 1.0)")
    parser.add_argument("--max-latency-regression", type=float,
                        default=0.10,
                        help="allowed fractional p99 latency increase "
                             "for service soak reports (default 0.10)")
    args = parser.parse_args(argv)
    if args.min_speedup < 0:
        parser.error("--min-speedup must be non-negative")
    if not 0 < args.max_latency_regression < 10:
        parser.error("--max-latency-regression must be in (0, 10)")

    base_report = json.loads(args.baseline.read_text())
    cand_report = json.loads(args.candidate.read_text())
    if is_table1_report(base_report) or is_table1_report(cand_report):
        if not (is_table1_report(base_report)
                and is_table1_report(cand_report)):
            print("FAIL:\n  cannot compare a table1 latency report "
                  "against a different report family")
            return 1
        max_regression = (args.max_regression
                          if args.max_regression is not None else 0.30)
        if not 0 < max_regression < 1:
            parser.error("--max-regression must be in (0, 1)")
        print(f"comparing table1 latency reports (allowing "
              f"{max_regression * 100:.0f}% latency rise)")
        failures = compare_table1(base_report, cand_report, max_regression)
        if failures:
            print("FAIL:")
            for line in failures:
                print(f"  {line}")
            return 1
        print("table1 latency gate passed")
        return 0
    if is_service_report(base_report) or is_service_report(cand_report):
        if not (is_service_report(base_report)
                and is_service_report(cand_report)):
            print("FAIL:\n  cannot compare a service soak report against "
                  "a checker report")
            return 1
        # Soak metrics are deterministic, so the default margin tightens.
        max_drop = (args.max_regression
                    if args.max_regression is not None else 0.10)
        if not 0 < max_drop < 1:
            parser.error("--max-regression must be in (0, 1)")
        print(f"comparing service soak reports (allowing "
              f"{max_drop * 100:.0f}% goodput drop, "
              f"{args.max_latency_regression * 100:.0f}% p99 rise)")
        failures = compare_service(
            base_report, cand_report, max_goodput_drop=max_drop,
            max_p99_increase=args.max_latency_regression)
        if failures:
            print("FAIL:")
            for line in failures:
                print(f"  {line}")
            return 1
        print("service benchmark gate passed")
        return 0

    max_regression = (args.max_regression
                      if args.max_regression is not None else 0.30)
    if not 0 < max_regression < 1:
        parser.error("--max-regression must be in (0, 1)")
    args.max_regression = max_regression

    baseline = load_rates(args.baseline)
    candidate = load_rates(args.candidate)
    print(f"comparing {len(set(baseline) & set(candidate))} common "
          f"scenarios (allowing {args.max_regression * 100:.0f}% slowdown)")
    failures = compare(baseline, candidate, args.max_regression)
    failures.extend(check_speedups(args.candidate, args.min_speedup))
    failures.extend(compare_counts(load_counts(args.baseline),
                                   load_counts(args.candidate)))
    if failures:
        print("FAIL:")
        for line in failures:
            print(f"  {line}")
        return 1
    print("benchmark gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
