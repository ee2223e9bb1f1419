"""Derive the verdict table of the basis search: the last filter stage each
of the 3648 candidates passes.

Each candidate goes through the library's own ``filter_pipeline`` alone, so
its verdict is the last stage whose count is 1.  The table is keyed by the
candidate's sorted class labels (unique among the candidates).  This takes
about as long as the full exact pipeline.

    python3 perfbench/make_verdicts.py [--out perfbench/verdicts.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from ps12splines.basis_search import (  # noqa: E402
    PIPELINE_STAGES,
    enumerate_candidates,
    filter_pipeline,
)
from search_work import candidate_key  # noqa: E402


def verdict(cand) -> str:
    """Last pipeline stage the candidate passes, from a one-candidate run."""
    counts = filter_pipeline(candidates=[cand]).counts
    passed = [s for s in PIPELINE_STAGES if counts.get(s) == 1]
    return passed[-1]


def tallies(verdicts: dict) -> dict:
    """Survivors after each stage: candidates whose verdict is that stage or later."""
    rank = {s: i for i, s in enumerate(PIPELINE_STAGES)}
    return {s: sum(1 for v in verdicts.values() if rank[v] >= rank[s])
            for s in PIPELINE_STAGES}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=os.path.join(HERE, "verdicts.json"))
    args = ap.parse_args()
    verdicts = {candidate_key(c): verdict(c) for c in enumerate_candidates()}
    table = {"stages": list(PIPELINE_STAGES), "tallies": tallies(verdicts),
             "verdicts": dict(sorted(verdicts.items()))}
    with open(args.out, "w") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(json.dumps(table["tallies"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
