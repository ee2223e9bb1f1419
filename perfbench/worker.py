"""One benchmark process: set up, then run operations in a closed loop.

    python3 perfbench/worker.py --workload W --seed N --t0 MONOTONIC --out RESULT.json
        [--seconds S --min-ops K | --ops K] [--op-start I --op-stride J]
        [--trace SPANS]

The set-up time runs from --t0, the parent's CLOCK_MONOTONIC reading just
before it started this interpreter, to the moment the first operation may
start.  Without --ops the loop runs until --seconds have passed and at least
--min-ops operations are done; with --ops it runs exactly that many, so a
traced process can repeat the work of an untraced one.  Operation j of the
process is the workload's operation --op-start + --op-stride * j, so several
processes of one run can share out a single sequence of seeded operations.

Before each operation and after the last one the process times a fixed
calibration job.  ``ref_latencies`` are the operation times scaled by
CALIBRATION_REF_S over the median calibration time: the times the operations
would take on the machine running at its reference speed.  A workload whose
``calibrated`` attribute is false is not calibrated; its ``ref_latencies``
are its operation times.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]


#: Seconds the calibration job takes at the reference speed, about its median
#: on the machine BASELINE.md describes.
CALIBRATION_REF_S = 0.08


def calibration() -> float:
    """Seconds taken by a fixed pure-Python job that uses no library code:
    exact Gauss-Jordan elimination of the 13 x 13 Hilbert matrix, eight
    times over.  Run between operations, it measures how fast the shared
    machine is while this process runs."""
    t0 = time.perf_counter()
    for _ in range(8):
        n = 13
        a = [[Fraction(1, i + j + 1) for j in range(n)] + [Fraction(i + 1)] for i in range(n)]
        for c in range(n):
            inv = 1 / a[c][c]
            a[c] = [v * inv for v in a[c]]
            for r in range(n):
                if r != c:
                    f = a[r][c]
                    a[r] = [v - f * w for v, w in zip(a[r], a[c])]
    return time.perf_counter() - t0


def make_work(args):
    if args.workload == "search":
        from search_work import SearchWork
        return SearchWork(args.seed)
    if args.workload.startswith("library_"):
        from library_work import LibraryWork
        return LibraryWork(args.seed, args.workload.split("_", 1)[1])
    from cli_work import CliWork
    spans_dir = None
    if args.trace:
        spans_dir = args.trace + ".d"
        os.makedirs(spans_dir, exist_ok=True)
    return CliWork(args.seed, os.path.join(ROOT, ".perfbench_out", f"cli-work-{os.getpid()}"),
                   spans_dir)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["search", "library_exact", "library_float", "library_assembly",
                             "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-ops", type=int, default=1)
    ap.add_argument("--ops", type=int, default=0)
    ap.add_argument("--op-start", type=int, default=0,
                    help="operation j of this process is operation start + stride * j")
    ap.add_argument("--op-stride", type=int, default=1)
    ap.add_argument("--trace", default=None, help="record spans and write them here")
    args = ap.parse_args()

    work = make_work(args)
    tracer = None
    if args.trace and args.workload != "cli":
        from tracer import INSTALLERS, Tracer
        tracer = work.tracer = Tracer()
        INSTALLERS[args.workload.split("_")[0]](tracer)
    try:
        work.setup()
        setup_s = time.monotonic() - args.t0
        if args.workload == "cli":
            setup_s = median(work.setup_samples)
        result = {"setup_s": setup_s, "latencies": [], "attempted": 0, "failed": 0,
                  "calibration": []}
        run_loop(work, args, result)
        if tracer is not None and hasattr(work, "traced_pass"):
            work.traced_pass(tracer)
    finally:
        if hasattr(work, "close"):
            work.close()
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    result["record"] = work.record()
    if hasattr(work, "rates"):
        result["rates"] = work.rates
    if hasattr(work, "samples"):
        result["samples"] = work.samples
        result["setup_samples"] = work.setup_samples
    if tracer is not None:
        tracer.dump(args.trace)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def run_loop(work, args, result):
    calibrated = getattr(work, "calibrated", True)
    start = time.perf_counter()
    i = 0
    while True:
        gc.collect()    # every operation starts from the same collector state
        if calibrated:
            result["calibration"].append(calibration())
        try:
            dt, attempted, failed = work.op(args.op_start + args.op_stride * i)
            result["latencies"].append(dt)
        except Exception:
            traceback.print_exc()
            attempted, failed = 1, 1
        result["attempted"] += attempted
        result["failed"] += failed
        i += 1
        if args.ops:
            if i >= args.ops:
                break
        elif time.perf_counter() - start >= args.seconds and i >= args.min_ops:
            break
    result["ops"] = i
    result["main_s"] = sum(result["latencies"])
    scale = 1.0
    if calibrated:
        result["calibration"].append(calibration())
        scale = CALIBRATION_REF_S / median(result["calibration"])
    result["ref_latencies"] = [dt * scale for dt in result["latencies"]]


if __name__ == "__main__":
    sys.exit(main())
