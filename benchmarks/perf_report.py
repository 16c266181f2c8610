"""Machine-readable checker benchmark: naive vs incremental.

Times the naive replay oracle against the prefix-sharing incremental
checker on the built-in scenarios, asserts their results are identical,
and writes everything as one JSON file
(``benchmarks/results/BENCH_checker.json`` by default) so CI can track
orders-per-second without parsing tables.

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf_report.py            # full
    PYTHONPATH=src python benchmarks/perf_report.py --quick    # CI smoke

``--no-incremental`` times only the naive oracle (mode "oracle" in the
JSON) — useful to sanity-check the baseline on a new machine.

``--profile`` runs one extra (untimed) incremental pass per scenario
with a :class:`repro.obs.profile.PhaseProfiler` attached and adds the
per-phase wall-time breakdown (snapshot / restore / deliver / leaf,
plus expansion and transposition-hit counts) to each scenario's JSON
record.  The timed passes stay unprofiled so the numbers are clean.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import time
from typing import Callable, List, Optional, Sequence, Tuple

if __package__ in (None, ""):  # `python benchmarks/perf_report.py`
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                           / "src"))

from repro.obs.profile import PhaseProfiler
from repro.verify.adversary import builtin_scenarios, fig8_scenario
from repro.verify.incremental import CheckStats, check_scenario_incremental
from repro.verify.model_check import CheckResult, Scenario, check_scenario

DEFAULT_OUTPUT = (pathlib.Path(__file__).resolve().parent
                  / "results" / "BENCH_checker.json")

#: The Fig. 8 worst case (9240 interleavings): the acceptance target is
#: >= 3x single-process speedup here.
WORST_CASE_NAME = fig8_scenario(2).name


#: Each timing sample runs its check back to back until at least this
#: long has elapsed and reports the time per run (like ``timeit``'s
#: autorange), so one noisy call cannot decide a sub-millisecond
#: scenario's throughput.
MIN_SAMPLE_S = 0.02


def _time(fns: Sequence[Callable[[], CheckResult]],
          repeats: int) -> List[Tuple[float, CheckResult]]:
    """Median-of-*repeats* wall time per run of each of *fns*, each with
    its (last) result.

    Each sample calls one function back to back until
    :data:`MIN_SAMPLE_S` has elapsed and divides by the calls.  The
    functions' samples alternate, one of each per round, so a shared
    host that speeds up or slows down between rounds moves the naive
    and incremental timings alike instead of the speedup between them.
    The median (rather than best-of) keeps a lucky sample from
    reporting an outlier as the scenario's throughput, so
    BENCH_checker.json numbers are stable across runs.
    """
    samples: List[List[float]] = [[] for _ in fns]
    results: List[Optional[CheckResult]] = [None] * len(fns)
    for _ in range(repeats):
        for index, fn in enumerate(fns):
            runs = 0
            t0 = time.perf_counter()
            while True:
                results[index] = fn()
                runs += 1
                elapsed = time.perf_counter() - t0
                if elapsed >= MIN_SAMPLE_S:
                    break
            samples[index].append(elapsed / runs)
    timings = []
    for times, result in zip(samples, results):
        assert result is not None
        timings.append((statistics.median(times), result))
    return timings


def bench_scenario(scenario: Scenario, repeats: int,
                   incremental: bool = True,
                   profile: bool = False) -> dict:
    """Benchmark one scenario; returns its JSON record."""
    stats = CheckStats()

    def run() -> CheckResult:
        nonlocal stats
        stats = CheckStats()
        return check_scenario_incremental(scenario, stats=stats)

    fns: List[Callable[[], CheckResult]] = [lambda: check_scenario(scenario)]
    if incremental:
        fns.append(run)
    timings = _time(fns, repeats)
    naive_s, naive = timings[0]
    orders = naive.total_interleavings
    entry = {
        "name": scenario.name,
        "orders": orders,
        "naive": {
            "wall_s": round(naive_s, 6),
            "orders_per_s": round(orders / naive_s, 1) if naive_s else None,
        },
    }
    if not incremental:
        return entry
    inc_s, inc = timings[1]
    entry["incremental"] = {
        "wall_s": round(inc_s, 6),
        "orders_per_s": round(orders / inc_s, 1) if inc_s else None,
        "accesses_delivered": stats.accesses_delivered,
        "naive_accesses": stats.naive_accesses,
        "accesses_saved": stats.accesses_saved,
        "delivery_ratio": round(stats.delivery_ratio, 4),
        "transposition_hits": stats.transposition_hits,
        "transposition_entries": stats.transposition_entries,
        "journal_entries_replayed": stats.journal_entries_replayed,
        "dirty_pages": stats.dirty_pages,
        "batched_deliveries": stats.batched_deliveries,
    }
    entry["speedup"] = round(naive_s / inc_s, 2) if inc_s else None
    entry["identical"] = inc == naive
    if profile:
        # Separate untimed pass so profiling never skews the timings.
        profiler = PhaseProfiler()
        check_scenario_incremental(scenario, profiler=profiler)
        entry["profile"] = profiler.report()
    return entry


def build_report(quick: bool = False, incremental: bool = True,
                 repeats: Optional[int] = None,
                 profile: bool = False) -> dict:
    """Run the full benchmark and return the JSON-ready report dict."""
    if repeats is None:
        repeats = 1 if quick else 3
    scenarios = builtin_scenarios()
    if quick:
        wanted = {"fig5-repeated3", "fig6-repeated4", WORST_CASE_NAME,
                  "pair-race-keyed"}
        scenarios = [s for s in scenarios if s.name in wanted]
    entries = [bench_scenario(s, repeats, incremental=incremental,
                              profile=profile and incremental)
               for s in scenarios]

    report = {
        "benchmark": "checker_speed",
        "generated_by": "benchmarks/perf_report.py",
        "mode": "incremental" if incremental else "oracle",
        "quick": quick,
        "profiled": bool(profile and incremental),
        "python": sys.version.split()[0],
        "scenarios": entries,
    }
    if incremental:
        worst = next((e for e in entries if e["name"] == WORST_CASE_NAME),
                     None)
        if worst is not None:
            report["worst_case"] = {
                "name": worst["name"],
                "orders": worst["orders"],
                "speedup": worst["speedup"],
                "target_speedup": 3.0,
                "meets_target": (worst["speedup"] or 0) >= 3.0,
            }
        report["all_identical"] = all(e["identical"] for e in entries)
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the interleaving checkers; emit JSON.")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: fewer scenarios, one round")
    parser.add_argument("--output", type=pathlib.Path,
                        default=DEFAULT_OUTPUT,
                        help=f"output path (default {DEFAULT_OUTPUT})")
    parser.add_argument("--no-incremental", action="store_true",
                        help="time only the naive oracle")
    parser.add_argument("--repeat", "--repeats", dest="repeat",
                        type=int, default=None,
                        help="median-of-N rounds per scenario (default: "
                             "1 in --quick mode, 3 otherwise)")
    parser.add_argument("--profile", action="store_true",
                        help="add per-phase wall-time breakdowns "
                             "(snapshot/restore/deliver/leaf) to the JSON")
    args = parser.parse_args(argv)
    if args.repeat is not None and args.repeat < 1:
        parser.error(f"--repeat must be >= 1, got {args.repeat}")

    report = build_report(quick=args.quick,
                          incremental=not args.no_incremental,
                          repeats=args.repeat, profile=args.profile)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    for entry in report["scenarios"]:
        line = (f"{entry['name']:34s} {entry['orders']:7d} orders  "
                f"naive {entry['naive']['orders_per_s']:>10} ord/s")
        if "incremental" in entry:
            line += (f"  incremental {entry['incremental']['orders_per_s']:>10}"
                     f" ord/s  {entry['speedup']:>6}x"
                     f"  identical={entry['identical']}")
        print(line)
        if "profile" in entry:
            detail = ", ".join(
                f"{name} {info['seconds']:.3f}s/{info['count']}"
                for name, info in entry["profile"].items())
            print(f"{'':34s} profile: {detail}")
    if "worst_case" in report:
        wc = report["worst_case"]
        print(f"worst case {wc['name']}: {wc['speedup']}x "
              f"(target >= {wc['target_speedup']}x, "
              f"{'MET' if wc['meets_target'] else 'MISSED'})")
    print(f"wrote {args.output}")

    ok = report.get("all_identical", True)
    if "worst_case" in report:
        ok = ok and report["worst_case"]["meets_target"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
