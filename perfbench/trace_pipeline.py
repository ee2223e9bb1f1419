"""Per-layer times of one full exact search, for comparison with the
whole-pipeline figures in ROADMAP.md.

    python3 perfbench/trace_pipeline.py

Does the search workload's set-up with the search wrappers installed (set-up
layers are traced; its warm-up pass is not), then traces one
``filter_pipeline()`` over all 3648 candidates and prints busy time, self
time and calls per span name.  Takes about as long as the full pipeline.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from search_work import SearchWork  # noqa: E402
from tracer import Tracer, busy_and_self, install_search  # noqa: E402


def main() -> int:
    tr = Tracer()
    install_search(tr)
    work = SearchWork(0)
    work.tracer = tr
    t0 = time.perf_counter()
    work.setup()
    t1 = time.perf_counter()
    report = work.bs.filter_pipeline()
    t2 = time.perf_counter()
    busy, self_t, calls = busy_and_self(tr.spans)
    print(f"set-up {t1 - t0:.2f} s, pipeline {t2 - t1:.2f} s, counts {report.counts}")
    print(f"{'span':48s} {'busy s':>9s} {'self s':>9s} {'calls':>7s}")
    for name in sorted(busy, key=busy.get, reverse=True):
        print(f"{name:48s} {busy[name]:9.3f} {self_t[name]:9.3f} {calls[name]:7d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
