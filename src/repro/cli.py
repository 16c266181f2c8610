"""Command-line interface: regenerate any of the paper's experiments.

::

    python -m repro table1            # Table 1, paper vs measured
    python -m repro methods           # every initiation method (14)
    python -m repro attacks           # Figs. 5 & 6, exact + exhaustive
    python -m repro races             # the honest-race matrix
    python -m repro verify            # naive-vs-incremental differential
    python -m repro faults            # re-verification under faults
    python -m repro fig8              # §3.3.1 exhaustive verification
    python -m repro crossover         # the intro's trend & crossovers
    python -m repro bus               # §3.4 PCI sweep
    python -m repro atomics           # §3.5 atomic operations
    python -m repro stress            # kernel-modification ablation
    python -m repro hunt              # synthesize counterexamples
    python -m repro trace             # traced adversary run -> Perfetto
    python -m repro metrics           # metric time series of that run
    python -m repro serve             # the always-on DMA service (TCP)
    python -m repro soak              # multi-tenant soak -> BENCH report
    python -m repro postmortem        # reproduce flight-recorder bundles
    python -m repro trends            # anomaly scan of a soak history
    python -m repro all               # every experiment above, in order

Each command prints the same tables the benchmark suite persists under
``benchmarks/results/``.

Every subcommand shares one option group: ``--seed`` picks the seed of
stochastic experiments and ``--json PATH`` (aliases ``--output`` and
``--out``) writes the command's machine-readable report.  All file
output funnels through :mod:`repro.obs.writer`.  Options always follow
the subcommand name.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Dict, List, Optional

from .analysis.report import Table, format_us
from .analysis.trends import (
    crossover_table,
    measure_initiation_us,
    overhead_sweep,
)
from .core.methods import METHODS, TABLE1_METHODS
from .core.timing import ALPHA3000_TURBOCHANNEL, ALPHA_PCI_33, ALPHA_PCI_66
from .net.link import ATM_155, ATM_622, GIGABIT

PAPER_TABLE1_US = {"kernel": 18.6, "extshadow": 1.1, "repeated5": 2.6,
                   "keyed": 2.3}


def cmd_table1(args: argparse.Namespace) -> None:
    """Reproduce Table 1."""
    table = Table("Table 1: Comparison of DMA initiation algorithms",
                  ["DMA algorithm", "paper (us)", "measured (us)",
                   "ratio"])
    for method in TABLE1_METHODS:
        measured = measure_initiation_us(method,
                                         iterations=args.iterations)
        paper = PAPER_TABLE1_US[method]
        table.add_row(METHODS[method].title, format_us(paper),
                      format_us(measured, 2),
                      f"{measured / paper:.2f}x")
    print(table.render())


def cmd_methods(args: argparse.Namespace) -> None:
    """Measure every initiation method."""
    table = Table("All initiation methods",
                  ["method", "section", "accesses", "kernel-free",
                   "measured (us)"])
    for name, info in METHODS.items():
        measured = measure_initiation_us(name,
                                         iterations=args.iterations)
        table.add_row(info.title, info.section,
                      info.memory_accesses or "-",
                      "yes" if info.kernel_free else "NO",
                      format_us(measured, 2))
    print(table.render())


def cmd_attacks(args: argparse.Namespace) -> None:
    """Replay and search the Fig. 5 / Fig. 6 attacks."""
    from .verify.adversary import fig5_scenario, fig6_scenario
    from .verify.model_check import check_scenario, replay_interleaving

    for build in (fig5_scenario, fig6_scenario):
        scenario, figure_order = build()
        violations = replay_interleaving(scenario, figure_order)
        result = check_scenario(scenario)
        print(f"{scenario.name}:")
        print(f"  figure's interleaving violates: "
              f"{sorted({v.prop for v in violations})}")
        print(f"  exhaustive: {result.summary()}")


def cmd_races(args: argparse.Namespace) -> None:
    """The honest-race matrix (no kernel hooks)."""
    from .verify.adversary import pair_race_scenario
    from .verify.model_check import check_scenario

    table = Table("Two honest processes racing (no kernel hooks)",
                  ["method", "interleavings", "violating", "race-free"])
    for method in ("shrimp2", "flash", "keyed", "extshadow",
                   "repeated5", "iommu", "capio"):
        result = check_scenario(pair_race_scenario(method))
        table.add_row(method, result.total_interleavings,
                      result.violating_interleavings,
                      "yes" if result.safe else "NO")
    print(table.render())


def cmd_verify(args: argparse.Namespace) -> None:
    """Differential check: naive vs incremental over every scenario."""
    from .verify.adversary import builtin_scenarios
    from .verify.incremental import check_scenario_incremental
    from .verify.model_check import check_scenario

    table = Table("Built-in scenarios, naive vs incremental checker",
                  ["scenario", "method", "interleavings", "violating",
                   "verdict", "checkers agree"])
    mismatches = []
    for scenario in builtin_scenarios():
        naive = check_scenario(scenario)
        incremental = check_scenario_incremental(scenario)
        agree = (naive.safe == incremental.safe
                 and (naive.total_interleavings
                      == incremental.total_interleavings)
                 and (naive.violating_interleavings
                      == incremental.violating_interleavings))
        if not agree:
            mismatches.append(scenario.name)
        table.add_row(scenario.name, scenario.method,
                      naive.total_interleavings,
                      naive.violating_interleavings,
                      "safe" if naive.safe else "ATTACK",
                      "yes" if agree else "NO")
    print(table.render())
    if mismatches:
        print(f"checker divergence on: {', '.join(mismatches)}")
        raise SystemExit(1)
    print("naive and incremental checkers agree on every scenario")


def cmd_faults(args: argparse.Namespace) -> None:
    """Re-verify every initiation method under single-fault schedules."""
    from .verify.faulted import FAULT_HARDENED_METHODS, VERIFIABLE_METHODS
    from .verify.synth import run_k_fault_campaign

    reports = run_k_fault_campaign(VERIFIABLE_METHODS, k=1)
    table = Table("Protection + atomicity under single faults "
                  "(page-bounded engine)",
                  ["method", "baseline", "fault variants",
                   "interleavings", "verdict"])
    for method, report in reports.items():
        table.add_row(method,
                      "safe" if report.baseline_safe else "unsafe",
                      report.combos_checked,
                      report.interleavings_checked,
                      report.verdict)
    print(table.render())
    expected_safe = set(FAULT_HARDENED_METHODS)
    hardened_ok = all(reports[m].verdict == "SAFE" for m in expected_safe)
    none_newly = all(r.acceptable for r in reports.values())
    print(f"hardened methods ({', '.join(FAULT_HARDENED_METHODS)}) all "
          f"SAFE: {'yes' if hardened_ok else 'NO'}")
    print(f"no method NEWLY-UNSAFE: {'yes' if none_newly else 'NO'}")
    if not (hardened_ok and none_newly):
        raise SystemExit(1)


def cmd_fig8(args: argparse.Namespace) -> None:
    """Exhaustively verify the 5-instruction variant (§3.3.1)."""
    from .verify.adversary import fig8_scenario
    from .verify.model_check import check_scenario

    for scenario in (fig8_scenario(1), fig8_scenario(2),
                     fig8_scenario(1, adversary_reads_source=False),
                     fig8_scenario(4, accesses_per_adversary=1)):
        print(check_scenario(scenario).summary())


def cmd_prove(args: argparse.Namespace) -> None:
    """The mechanized §3.3.1 lemma-by-lemma proof."""
    from .verify.adversary import fig8_scenario
    from .verify.proof import prove_fig8

    for scenario in (fig8_scenario(1), fig8_scenario(2),
                     fig8_scenario(4, accesses_per_adversary=1)):
        print(prove_fig8(scenario).summary())
        print()


def cmd_crossover(args: argparse.Namespace) -> None:
    """The intro's overhead trend and crossover sizes."""
    init = {m: measure_initiation_us(m, iterations=args.iterations)
            for m in ("kernel", "extshadow", "keyed")}
    links = [ATM_155, ATM_622, GIGABIT]
    table = Table("Crossover sizes (initiation == wire time)",
                  ["method", "init (us)"] + [link.name for link in links])
    for method, rows in (
            (m, [r for r in crossover_table([m], links,
                                            initiation_us=init)])
            for m in init):
        table.add_row(method, format_us(init[method], 2),
                      *(f"{r.crossover_bytes} B" for r in rows))
    print(table.render())
    print()
    sizes = [64, 1024, 16384]
    points = overhead_sweep(["kernel", "extshadow"], links, sizes,
                            initiation_us=init)
    table2 = Table("Initiation share of message time (%)",
                   ["method", "link"] + [f"{s} B" for s in sizes])
    for method in ("kernel", "extshadow"):
        for link in links:
            row = sorted((p for p in points if p.method == method
                          and p.link == link.name),
                         key=lambda p: p.size)
            table2.add_row(method, link.name,
                           *(f"{p.overhead_fraction * 100:.0f}"
                             for p in row))
    print(table2.render())


def cmd_bus(args: argparse.Namespace) -> None:
    """§3.4: Table 1 across bus generations."""
    presets = [("TC 12.5", ALPHA3000_TURBOCHANNEL),
               ("PCI 33", ALPHA_PCI_33), ("PCI 66", ALPHA_PCI_66)]
    table = Table("Initiation latency vs. bus generation (us)",
                  ["method"] + [name for name, _ in presets])
    for method in TABLE1_METHODS:
        table.add_row(method, *(format_us(
            measure_initiation_us(method, timing,
                                  iterations=args.iterations), 2)
            for _name, timing in presets))
    print(table.render())


def cmd_atomics(args: argparse.Namespace) -> None:
    """§3.5: atomic-operation latencies."""
    from .core.atomics import AtomicChannel
    from .core.machine import MachineConfig, Workstation

    table = Table("Atomic-operation initiation (us)",
                  ["mode", "atomic_add", "compare_and_swap"])
    for mode in ("keyed", "extshadow"):
        ws = Workstation(MachineConfig(method="keyed",
                                       atomic_mode=mode))
        proc = ws.kernel.spawn()
        ws.kernel.enable_user_atomics(proc)
        buf = ws.kernel.alloc_buffer(proc, 8192, shadow=False)
        chan = AtomicChannel(ws, proc)
        chan.atomic_add(buf.vaddr, 0)  # warm
        add = chan.atomic_add(buf.vaddr, 1).elapsed_us
        cas = chan.compare_and_swap(buf.vaddr, 0, 1).elapsed_us
        table.add_row(mode, format_us(add, 2), format_us(cas, 2))
        if mode == "keyed":
            kernel_add = chan.atomic_add(buf.vaddr, 1,
                                         via_kernel=True).elapsed_us
            table.add_row("kernel", format_us(kernel_add, 2), "-")
    print(table.render())


def cmd_generations(args: argparse.Namespace) -> None:
    """The decade-scale OS-vs-network trend (intro's motivation)."""
    from .analysis.generations import (
        HISTORICAL_GENERATIONS,
        domination_year,
        generation_series,
    )

    sizes = [256, 1024, 4096]
    series = {size: generation_series(size) for size in sizes}
    table = Table("Kernel initiation / wire time, by generation",
                  ["year", "CPU MHz", "LAN Mb/s"]
                  + [f"{s} B" for s in sizes])
    for index, gen in enumerate(HISTORICAL_GENERATIONS):
        table.add_row(gen.year, f"{gen.cpu_mhz:.0f}",
                      f"{gen.network_mbps:.0f}",
                      *(f"{series[s][index].kernel_ratio:.2f}"
                        for s in sizes))
    print(table.render())
    for size in sizes:
        year = domination_year(size)
        print(f"  {size} B messages: kernel initiation dominates from "
              f"{year if year > 0 else 'never'}")


def cmd_stress(args: argparse.Namespace) -> None:
    """The kernel-modification ablation."""
    from .verify.stress import run_stress

    table = Table("Stress audit (4 procs x 20 DMAs, p=0.5)",
                  ["method", "hook", "started", "corrupted",
                   "misreported"])
    for method, hooks in (("shrimp2", True), ("shrimp2", False),
                          ("flash", True), ("flash", False),
                          ("keyed", True), ("extshadow", True),
                          ("repeated5", True)):
        report = run_stress(method, n_processes=4, dmas_each=20,
                            preempt_p=0.5, with_hooks=hooks,
                            with_retry=(method == "repeated5"),
                            seed=args.seed)
        table.add_row(method,
                      "yes" if hooks and method in ("shrimp2", "flash")
                      else "-",
                      f"{report.started}/{report.attempts}",
                      report.corrupted, report.misreported)
    print(table.render())


def cmd_trace(args: argparse.Namespace) -> None:
    """Run the traced two-adversary workload and export its spans."""
    from .obs.export import (span_summary_table, span_tree_roots,
                             spans_jsonl, write_chrome_trace)
    from .obs.runs import traced_adversary_run

    run = traced_adversary_run(seed=args.seed)
    spans = run.spans()
    if args.export == "chrome":
        path = args.output or "trace.json"
        trace = write_chrome_trace(path, spans, metrics=run.ws.metrics)
        print(f"wrote {path}: {len(trace['traceEvents'])} trace events "
              f"({len(spans)} spans, {len(run.ws.metrics)} metric samples)")
        print("open it in https://ui.perfetto.dev or chrome://tracing")
    elif args.export == "jsonl":
        from .obs.writer import write_text

        text = spans_jsonl(spans)
        if args.output:
            write_text(args.output, text)
            print(f"wrote {args.output}: {len(spans)} spans")
        else:
            print(text, end="")
    else:
        roots = [s for s in span_tree_roots(spans)
                 if s.name in ("dma", "dma.reliable", "dma.initiate")]
        outcomes: Dict[str, int] = {}
        for root in roots:
            outcome = str(root.attrs.get("outcome", "-"))
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
        print(f"{len(roots)} DMA attempt trees: "
              + ", ".join(f"{k}={v}" for k, v in sorted(outcomes.items())))
        print(span_summary_table(spans).render())


def cmd_metrics(args: argparse.Namespace) -> None:
    """Run the traced workload and print its metric time series."""
    from .obs.runs import traced_adversary_run
    from .obs.writer import write_json

    run = traced_adversary_run(seed=args.seed)
    metrics = run.ws.metrics
    if args.output:
        write_json(args.output, metrics.to_dict())
        print(f"wrote {args.output}: {len(metrics)} samples, "
              f"{len(metrics.names())} series")
        return
    table = Table(f"Metric time series ({len(metrics)} samples)",
                  ["metric", "first", "last", "delta"])
    for name in metrics.names():
        series = metrics.series(name)
        if not series:
            continue
        first, last = series[0][1], series[-1][1]
        if last == 0.0 and first == 0.0:
            continue
        table.add_row(name, f"{first:g}", f"{last:g}",
                      f"{last - first:+g}")
    print(table.render())


def cmd_hunt(args: argparse.Namespace) -> None:
    """Synthesize counterexamples (and run the k-fault campaign)."""
    import itertools

    from .obs.profile import PhaseProfiler
    from .obs.writer import write_json
    from .obs.spans import SpanTracer
    from .verify.faulted import FAULT_HARDENED_METHODS
    from .verify.synth import HuntConfig, run_hunt, run_k_fault_campaign
    from .verify.synth.search import HUNT_METHODS

    methods = (tuple(args.methods.split(","))
               if args.methods else HUNT_METHODS)
    config = HuntConfig(seed=args.seed, budget_s=args.budget,
                        max_candidates=args.max_candidates)
    ticks = itertools.count()
    tracer = SpanTracer(clock=lambda: next(ticks), enabled=True)
    profiler = PhaseProfiler()
    reports = run_hunt(methods, config, tracer=tracer, profiler=profiler)
    tracer.require_balanced()

    table = Table(f"Counterexample hunt (seed {args.seed})",
                  ["method", "candidates", "interleavings", "outcome",
                   "shrunk"])
    for report in reports:
        if report.found:
            outcome = "FOUND: " + ",".join(report.props)
            shrunk = (str(len(report.shrunk))
                      if report.shrunk is not None else "-")
        else:
            outcome = ("exhausted, safe" if report.exhausted
                       else "safe within budget")
            shrunk = "-"
        table.add_row(report.method, report.candidates,
                      report.interleavings, outcome, shrunk)
    print(table.render())

    by_method = {r.method: r for r in reports}
    broken = [m for m in ("repeated3", "repeated4",
                          "iommu_noshootdown", "capio_noepoch")
              if m in by_method]
    hardened = [m for m in FAULT_HARDENED_METHODS if m in by_method]
    rediscovered = all(by_method[m].found for m in broken)
    survived = all(not by_method[m].found for m in hardened)
    print(f"broken variants rediscovered ({', '.join(broken) or 'none'}): "
          f"{'yes' if rediscovered else 'NO'}")
    print(f"hardened methods survived ({', '.join(hardened) or 'none'}): "
          f"{'yes' if survived else 'NO'}")

    kfault_reports = {}
    kfault_ok = True
    if args.k_faults > 0:
        campaign_methods = [m for m in FAULT_HARDENED_METHODS
                            if m in by_method] or None
        kfault_reports = run_k_fault_campaign(
            campaign_methods, k=args.k_faults, max_combos=args.max_combos,
            seed=args.seed, profiler=profiler)
        ktable = Table(f"k-fault campaign (k={args.k_faults})",
                       ["method", "combos", "skipped", "interleavings",
                        "verdict"])
        for method, report in kfault_reports.items():
            mode = "~" if report.sampled else ""
            ktable.add_row(method,
                           f"{mode}{report.combos_checked}"
                           f"/{report.combos_total}",
                           report.combos_skipped,
                           report.interleavings_checked, report.verdict)
        print(ktable.render())
        kfault_ok = all(r.verdict == "SAFE"
                        for r in kfault_reports.values())
        print(f"all campaigned methods SAFE under k={args.k_faults} "
              f"faults: {'yes' if kfault_ok else 'NO'}")

    if args.output:
        payload = {
            "seed": args.seed,
            "budget_s": args.budget,
            "max_candidates": args.max_candidates,
            "k_faults": args.k_faults,
            "hunts": [r.to_dict() for r in reports],
            "kfault": {m: r.to_dict()
                       for m, r in kfault_reports.items()},
            "spans": [s.to_dict() for s in tracer.finished()],
            "phases": profiler.report(),
        }
        write_json(args.output, payload)
        print(f"wrote {args.output}: {len(reports)} hunts, "
              f"{len(kfault_reports)} k-fault campaigns")

    if not (rediscovered and survived and kfault_ok):
        raise SystemExit(1)


def cmd_serve(args: argparse.Namespace) -> None:
    """Run the always-on DMA service on a TCP JSON-lines socket."""
    import asyncio

    from .service.frontend import ServiceConfig, serve_forever

    config = ServiceConfig(
        shards=args.shards, method=args.method, seed=args.seed,
        tick_hz=args.tick_hz, admission_rate=args.admission_rate,
        admission_burst=args.admission_burst,
        max_queue_depth=args.max_queue_depth)

    async def _run() -> None:
        ready = asyncio.Event()
        task = asyncio.get_running_loop().create_task(serve_forever(
            config, host=args.host, port=args.port, ready=ready,
            max_connections=args.max_connections, tick_wall=True))
        await ready.wait()
        print(f"serving {args.shards} shard(s) on "
              f"{args.host}:{ready.port}  "  # type: ignore[attr-defined]
              "(one JSON request per line; Ctrl-C to stop)")
        await task

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - interactive
        print("\nshutting down")


def _soak_config_from_args(args: argparse.Namespace, *,
                           spans: bool) -> Any:
    """Build a :class:`SoakConfig` from the shared soak option set."""
    import json

    from .service.soak import SoakConfig

    fault_plan = None
    if args.faults:
        with open(args.faults, "r", encoding="utf-8") as handle:
            fault_plan = json.load(handle)
    slo_spec = None
    if getattr(args, "slo", None):
        with open(args.slo, "r", encoding="utf-8") as handle:
            slo_spec = json.load(handle)
    return SoakConfig(
        tenants=args.tenants, duration_s=args.duration,
        tick_hz=args.tick_hz, rate=args.rate, skew=args.skew,
        zipf_s=args.zipf_s, shards=args.shards, method=args.method,
        seed=args.seed, fault_rate=args.fault_rate,
        fault_plan=fault_plan, control_run=not args.no_control,
        spans=spans, slo=slo_spec,
        admission_rate=args.admission_rate,
        admission_burst=args.admission_burst,
        max_queue_depth=args.max_queue_depth)


def cmd_soak(args: argparse.Namespace) -> None:
    """Run a multi-tenant soak and emit the BENCH_service report."""
    from .obs.writer import write_json
    from .service.soak import run_soak, strip_runtime

    config = _soak_config_from_args(
        args, spans=(args.trace is not None
                     or args.postmortem is not None))
    report = run_soak(config)
    service = report["_service"]
    requests, faults = report["requests"], report["faults"]

    table = Table(f"Soak: {config.tenants} tenants x {config.duration_s} s "
                  f"({config.skew}, seed {config.seed})",
                  ["metric", "value"])
    table.add_row("requests generated", requests["generated"])
    table.add_row("admitted / rejected",
                  f"{requests['admitted']} / {requests['rejected']}")
    table.add_row("completed", requests["completed"])
    table.add_row("retried / fell back / aborted",
                  f"{requests['retried']} / {requests['fell_back']} / "
                  f"{requests['aborted']}")
    table.add_row("wrong-data (detected, in-region)",
                  requests["wrong_data"])
    table.add_row("wrong-page transfers", requests["wrong_transfers"])
    table.add_row("goodput (MB/s)", report["goodput_mbytes_per_s"])
    table.add_row("latency p50/p95/p99 (us)",
                  f"{report['latency_us']['p50']} / "
                  f"{report['latency_us']['p95']} / "
                  f"{report['latency_us']['p99']}")
    table.add_row("Jain fairness (completions)",
                  report["fairness"]["jain_completions"])
    table.add_row("faults injected", faults["injected"])
    table.add_row("verdict", faults["verdict"])
    if "vs_faultfree" in report:
        table.add_row("goodput vs fault-free",
                      f"{report['vs_faultfree']['goodput_ratio']:.4f}")
    slo = report["slo"]
    table.add_row("SLO windows / breaches",
                  f"{slo['evaluations']} / {len(slo['breaches'])}")
    table.add_row("postmortem bundles", report["postmortems"]["count"])
    print(table.render())
    for breach in slo["breaches"]:
        print(f"SLO BREACH {breach['rule']} ({breach['kind']}) at "
              f"t={breach['t_s']}s: {breach['detail']}")

    if args.trend:
        write_json(args.trend, report["trend"])
        print(f"wrote {args.trend}: "
              f"{report['trend']['summary']['windows']} trend windows")
    if args.trace:
        trace = service.fleet_trace()
        write_json(args.trace, trace, indent=None)
        print(f"wrote {args.trace}: {len(trace['traceEvents'])} trace "
              "events (open in https://ui.perfetto.dev)")
    if args.postmortem:
        bundles = report["_postmortems"]
        write_json(args.postmortem, {
            "kind": "postmortem_bundles",
            "seed": config.seed,
            "config": config.to_dict(),
            "bundles": bundles,
        })
        print(f"wrote {args.postmortem}: {len(bundles)} bundle(s)")
    if args.output:
        write_json(args.output, strip_runtime(report))
        print(f"wrote {args.output}")
    if faults["verdict"] == "UNSAFE":
        raise SystemExit(1)
    if args.slo and slo["breached"]:
        raise SystemExit(1)


def cmd_postmortem(args: argparse.Namespace) -> None:
    """Re-run a soak deterministically and dump its flight-recorder
    bundles.

    Same option set as ``soak`` (span recording is forced on so the
    bundles carry their trace tails); the run is a pure function of the
    config, so re-running with the same seed and fault plan reproduces
    the exact bundles the original incident produced.
    """
    from .obs.writer import write_json
    from .service.soak import run_soak

    config = _soak_config_from_args(args, spans=True)
    report = run_soak(config)
    bundles = report["_postmortems"]
    verdict = report["faults"]["verdict"]
    if not bundles:
        print(f"no postmortems: run completed clean (verdict {verdict})")
    for bundle in bundles:
        print(f"{bundle['process']}: {bundle['reason']} at tick "
              f"{bundle['tick']} — {bundle['detail']}")
    path = args.output or "postmortem.json"
    write_json(path, {
        "kind": "postmortem_bundles",
        "seed": config.seed,
        "verdict": verdict,
        "config": config.to_dict(),
        "bundles": bundles,
    })
    print(f"wrote {path}: {len(bundles)} bundle(s), verdict {verdict}")


def cmd_trends(args: argparse.Namespace) -> None:
    """Scan a committed soak history for EWMA/robust-z anomalies."""
    import json

    from .analysis.trends import trend_anomaly_report
    from .obs.writer import write_json

    with open(args.history, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    # Accept either a full soak report (with its "trend" block) or a
    # bare trend report.
    trend = data.get("trend", data)
    result = trend_anomaly_report(trend, z_threshold=args.z_threshold)
    table = Table(f"Trend anomalies ({args.history}, "
                  f"z > {args.z_threshold:g})",
                  ["series", "anomalous windows (t_s)"])
    for name, hits in result["anomalies"].items():
        table.add_row(name,
                      ", ".join(f"{t:g}" for t in hits) if hits else "-")
    print(table.render())
    print(f"{result['windows']} windows scanned: "
          + ("ANOMALOUS" if result["anomalous"] else "clean"))
    if args.output:
        write_json(args.output, result)
        print(f"wrote {args.output}")
    if args.check and result["anomalous"]:
        raise SystemExit(1)


COMMANDS: Dict[str, Callable[[argparse.Namespace], None]] = {
    "table1": cmd_table1,
    "methods": cmd_methods,
    "attacks": cmd_attacks,
    "races": cmd_races,
    "verify": cmd_verify,
    "faults": cmd_faults,
    "fig8": cmd_fig8,
    "prove": cmd_prove,
    "crossover": cmd_crossover,
    "bus": cmd_bus,
    "atomics": cmd_atomics,
    "generations": cmd_generations,
    "stress": cmd_stress,
    "hunt": cmd_hunt,
    "trace": cmd_trace,
    "metrics": cmd_metrics,
    "serve": cmd_serve,
    "soak": cmd_soak,
    "postmortem": cmd_postmortem,
    "trends": cmd_trends,
}

#: One-line help per subcommand (shown in ``repro --help``).
COMMAND_HELP: Dict[str, str] = {
    "table1": "Table 1, paper vs measured",
    "methods": "every initiation method (the paper's ten + modern)",
    "attacks": "Figs. 5 & 6, exact replay + exhaustive check",
    "races": "the honest-race matrix",
    "verify": "naive-vs-incremental differential over all scenarios",
    "faults": "re-verification under single-fault schedules",
    "fig8": "exhaustive verification of the 5-instruction variant",
    "prove": "the mechanized lemma-by-lemma proof",
    "crossover": "the intro's overhead trend and crossover sizes",
    "bus": "Table 1 across bus generations",
    "atomics": "atomic-operation latencies",
    "generations": "the decade-scale OS-vs-network trend",
    "stress": "the kernel-modification ablation",
    "hunt": "synthesize counterexamples (+ k-fault campaign)",
    "trace": "traced adversary run exported to Perfetto",
    "metrics": "metric time series of the traced run",
    "serve": "run the always-on DMA service (TCP JSON lines)",
    "soak": "multi-tenant soak -> BENCH_service report",
    "postmortem": "reproduce a soak's flight-recorder bundles",
    "trends": "EWMA/robust-z anomaly scan of a soak history",
    "all": "every experiment above, in order",
}

#: The commands ``repro all`` runs, in order.
ALL_SEQUENCE = ("table1", "methods", "attacks", "races", "verify",
                "faults", "fig8", "prove", "crossover", "bus", "atomics",
                "generations", "stress", "hunt")


def _service_options(parser: argparse.ArgumentParser) -> None:
    """Admission/pool options shared by ``serve`` and ``soak``."""
    parser.add_argument("--shards", type=int, default=4,
                        help="machine pool size")
    parser.add_argument("--method", default="keyed",
                        help="initiation method every shard runs")
    parser.add_argument("--tick-hz", type=int, default=10,
                        help="service ticks per second")
    parser.add_argument("--admission-rate", type=float, default=5.0,
                        help="per-tenant sustained requests/second")
    parser.add_argument("--admission-burst", type=float, default=10.0,
                        help="per-tenant burst allowance")
    parser.add_argument("--max-queue-depth", type=int, default=64,
                        help="per-shard queue bound (backpressure)")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (one subparser per experiment).

    Every subcommand inherits the shared option group: ``--seed`` and
    ``--json`` (aliases ``--output``, ``--out``).  Measurement commands
    add ``--iterations``; ``hunt``, ``trace``, ``serve``, ``soak``,
    ``postmortem``, and ``trends`` add their own flags.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the experiments of Markatos & Katevenis, "
                    "'User-Level DMA without OS Kernel Modification' "
                    "(HPCA-3, 1997).")

    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("common options")
    group.add_argument("--seed", type=int, default=7,
                       help="seed for stochastic experiments")
    group.add_argument("--json", "--output", "--out", dest="output",
                       default=None, metavar="PATH",
                       help="write the command's JSON report/export here")

    measure = argparse.ArgumentParser(add_help=False)
    measure.add_argument("--iterations", type=int, default=50,
                         help="initiations per latency measurement")

    sub = parser.add_subparsers(dest="command", metavar="command",
                                required=True)

    def add(name: str, *parents: argparse.ArgumentParser
            ) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=COMMAND_HELP[name],
                              description=COMMAND_HELP[name],
                              parents=[common, *parents])

    for name in ("table1", "methods", "crossover", "bus"):
        add(name, measure)
    for name in ("attacks", "races", "verify", "faults", "fig8", "prove",
                 "atomics", "generations", "stress", "metrics"):
        add(name)

    trace = add("trace")
    trace.add_argument("--export", choices=("chrome", "jsonl", "summary"),
                       default="chrome", help="trace output format")

    hunt = add("hunt")
    hunt.add_argument("--budget", type=float, default=None,
                      help="wall-clock budget per hunted method, seconds")
    hunt.add_argument("--max-candidates", type=int, default=400,
                      help="adversary streams checked per method")
    hunt.add_argument("--k-faults", type=int, default=0,
                      help="also run a k-fault campaign on the hardened "
                           "methods (0 = off)")
    hunt.add_argument("--max-combos", type=int, default=None,
                      help="cap on fault combinations per method (below "
                           "the space size turns the campaign into a "
                           "seeded sample)")
    hunt.add_argument("--methods", default=None,
                      help="comma-separated methods to hunt "
                           "(default: every registered hunt method)")

    serve = add("serve")
    _service_options(serve)
    serve.add_argument("--host", default="127.0.0.1",
                       help="listen address")
    serve.add_argument("--port", type=int, default=0,
                       help="listen port (0 picks a free one)")
    serve.add_argument("--max-connections", type=int, default=None,
                       help="exit after serving this many connections")

    def _soak_options(parser: argparse.ArgumentParser) -> None:
        """Workload options shared by ``soak`` and ``postmortem``."""
        _service_options(parser)
        parser.add_argument("--tenants", type=int, default=200,
                            help="simulated tenant count")
        parser.add_argument("--duration", type=int, default=20,
                            help="soak length in service seconds")
        parser.add_argument("--rate", type=float, default=0.2,
                            help="offered requests per tenant-second")
        parser.add_argument("--skew", choices=("zipf", "uniform"),
                            default="zipf", help="tenant selection skew")
        parser.add_argument("--zipf-s", type=float, default=1.1,
                            help="zipf exponent (higher = hotter head)")
        parser.add_argument("--fault-rate", type=float, default=0.0,
                            help="Bernoulli fault rate "
                                 "(0 = no injection)")
        parser.add_argument("--faults", default=None,
                            metavar="PLAN_JSON",
                            help="fault plan file "
                                 "(overrides --fault-rate)")
        parser.add_argument("--no-control", action="store_true",
                            help="skip the fault-free control run")
        parser.add_argument("--slo", default=None, metavar="SLO_JSON",
                            help="SLO rule file (default: the built-in "
                                 "baseline rules)")

    soak = add("soak")
    _soak_options(soak)
    soak.add_argument("--trend", default=None, metavar="PATH",
                      help="write the trend report here")
    soak.add_argument("--trace", default=None, metavar="PATH",
                      help="write the fleet Perfetto trace here "
                           "(enables span recording)")
    soak.add_argument("--postmortem", default=None, metavar="PATH",
                      help="write the run's flight-recorder bundles "
                           "here (enables span recording)")

    postmortem = add("postmortem")
    _soak_options(postmortem)

    trends = add("trends")
    trends.add_argument("history", nargs="?",
                        default="benchmarks/results/BENCH_service.json",
                        help="soak report or bare trend report to scan")
    trends.add_argument("--z-threshold", type=float, default=4.0,
                        help="robust-z score above which a window is "
                             "anomalous")
    trends.add_argument("--check", action="store_true",
                        help="exit non-zero when any series is "
                             "anomalous (CI gate)")

    everything = add("all", measure)
    everything.set_defaults(budget=None, max_candidates=400, k_faults=0,
                            max_combos=None, methods=None,
                            export="chrome")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.command == "all":
        for name in ALL_SEQUENCE:
            print(f"\n===== {name} =====")
            COMMANDS[name](args)
    else:
        COMMANDS[args.command](args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
