"""One workload in its own process: set up, measure, check, report.

Started by ``run.py`` with the spawn time in ``PERFBENCH_SPAWNED`` (a
``time.monotonic()`` reading, comparable across processes), so set-up
time runs from process start — interpreter start-up and imports
included — to the first timed operation.  Prints one JSON object.

Modes:
    setup    set up, report set-up time, tear down
    measure  the untraced run: end-to-end metrics
    trace    the same work with every layer wrapped in spans
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

from meter import reference_samples, speed


def main() -> int:
    spawned = float(os.environ["PERFBENCH_SPAWNED"])
    # Reference samples bracket the set-up; their own time is not
    # charged to it.
    sampling = time.monotonic()
    before = reference_samples(5)
    sampling = time.monotonic() - sampling
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--spans", default=None,
                        help="write the traced run's spans here")
    args = parser.parse_args()

    tracer = None
    if args.mode == "trace":
        from tracing import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    workload.tracer = tracer
    workload.setup()
    setup_s = time.monotonic() - spawned - sampling
    setup_speed = speed(before + reference_samples(5))
    out = {"setup_s": setup_s * setup_speed, "raw_setup_s": setup_s,
           "setup_speed": setup_speed}
    if args.mode != "setup":
        workload.run()
    workload.close()
    if args.mode != "setup":
        problems = workload.check()
        out.update({
            "ops_name": workload.ops_name,
            "ops_per_s": workload.meter.rate(),
            "raw_ops_per_s": workload.meter.raw_rate(),
            "speed": workload.meter.speed(),
            "chunks": len(workload.meter.chunks),
            "attempted": workload.attempted,
            "failed": workload.failed,
            "problems": problems,
            "summary": workload.summary(),
            "inputs": workload.inputs(),
        })
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    if tracer is not None:
        from tracing import layer_metrics

        out["layers"] = layer_metrics(tracer)
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
