"""Checks of the benchmark's own data.

    python3 perfbench/verdict_check.py

1. The verdict table covers exactly the 3648 enumerated candidates and its
   tallies are 3648 -> 1024 -> 243 -> 47 -> 9 -> 7 -> 6.
2. Its six survivors carry the class labels BASIS_CLASS_CONTENT gives for
   the bases a-f.
3. A fresh full ``filter_pipeline()`` run has the same stage counts and
   survivors, and single-candidate runs give each candidate's verdict for a
   seeded sample of every stratum.  To re-derive every verdict, run
   make_verdicts.py with --out into a scratch file and compare it with
   verdicts.json.
4. BENCHMARK.json names the workloads run.py runs and the metrics it prints.

Takes about as long as the full exact pipeline.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from make_verdicts import tallies, verdict  # noqa: E402
from search_work import candidate_key, load_verdicts  # noqa: E402

PAPER_TALLIES = {"candidates": 3648, "full_rank": 1024, "nonnegative": 243, "positive": 47,
                 "domain_inside": 9, "boundary_counts": 7, "linear_factors": 6}


def check(cond: bool, what: str, failures: list):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def main() -> int:
    from ps12splines.basis_search import BASIS_CLASS_CONTENT, enumerate_candidates, filter_pipeline

    failures = []
    table = load_verdicts()
    verdicts = table["verdicts"]
    cands = enumerate_candidates()
    check(sorted(verdicts) == sorted(candidate_key(c) for c in cands),
          "table keys are exactly the enumerated candidates", failures)
    check(tallies(verdicts) == PAPER_TALLIES == table["tallies"],
          "tallies 3648 -> 1024 -> 243 -> 47 -> 9 -> 7 -> 6", failures)
    survivors = sorted(k for k, v in verdicts.items() if v == "linear_factors")
    check(survivors == sorted("".join(sorted(c)) for c in BASIS_CLASS_CONTENT.values()),
          "the six survivors carry the labels of bases a-f", failures)

    report = filter_pipeline()
    check(report.counts == PAPER_TALLIES, "fresh full pipeline: stage counts", failures)
    check(sorted("".join(s.labels) for s in report.survivors) == survivors,
          "fresh full pipeline: survivors", failures)

    rng = random.Random("verdict-check")
    by = {}
    for c in cands:
        by.setdefault(verdicts[candidate_key(c)], []).append(c)
    sample = [c for group in by.values() for c in rng.sample(group, min(len(group), 12))]
    wrong = [candidate_key(c) for c in sample if verdict(c) != verdicts[candidate_key(c)]]
    check(not wrong, f"single-candidate verdicts agree on {len(sample)} candidates"
          + (f" (disagree: {wrong[:5]})" if wrong else ""), failures)

    from run import END_TO_END, WORKLOADS, per_layer_names
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    check(tuple(w["name"] for w in bench["workloads"]) == WORKLOADS
          and [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(END_TO_END)
          and [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
          == per_layer_names(), "BENCHMARK.json names the workloads and metrics of run.py",
          failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
