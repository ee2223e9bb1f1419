"""The ``search`` workload: the paper's basis derivation on seeded draws.

Each operation runs ``filter_pipeline(candidates=draw)`` on a draw from
``enumerate_candidates()`` that is stratified by verdict (the last stage a
candidate passes, from ``verdicts.json``).  The seed shuffles each stratum;
the strata, one after another, are then dealt round-robin into DRAWS slots
of 57 candidates, so the slots together hold every candidate once and each
slot holds 1/DRAWS of each stratum, rounded.  Draw i of a run is slot
(SLOT_STEP * i) % DRAWS, which spreads a run's draws over the cycle: the 47
candidates that pass positivity, one in each of 47 slots, reach the later
filters at their real rate, so every filter sees the same share of its real
input as in the full derivation.  Each draw's stage counts are checked
against the verdict table and each survivor's weights and domain points
against the stored catalog.
"""

from __future__ import annotations

import json
import os
import random
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))

#: Slots in one cycle of draws; 3648 = 57 * 64 candidates.
DRAWS = 64
#: Odd, so draws 0, 1, ..., DRAWS - 1 visit every slot once.
SLOT_STEP = 29


def load_verdicts() -> dict:
    with open(os.path.join(HERE, "verdicts.json")) as fh:
        return json.load(fh)


def candidate_key(cand) -> str:
    return "".join(sorted(cand.labels))


class SearchWork:
    def __init__(self, seed: int):
        self.seed = seed
        self.table = load_verdicts()
        self.tracer = None

    def setup(self):
        """Import, enumeration, the 99 per-face tables and their lambda rows,
        then one pipeline pass over fixed warm-up candidates: full-rank ones
        that together contain all 99 splines, the survivor that is basis c,
        and the one the linear-factor split rejects.  That pass reaches every
        filter and every spline's rows, so whatever the pipeline builds
        lazily on first use (lambda rows read through another cache key, the
        Marsden right-hand sides, the sympy import) is built before the first
        draw."""
        from ps12splines import basis_search, dual_functionals, simplex_spline
        from ps12splines.geometry import reference_frame

        self.bs = basis_search
        cands = basis_search.enumerate_candidates()
        admissible = [K for cls in basis_search.enumerate_admissible() for K in cls.members]
        frame = reference_frame()
        for K in admissible:
            simplex_spline.per_face_bernstein(frame, K)
        for K in admissible:
            dual_functionals.lambda_vector(K)
        self.by_verdict = {}
        for c in cands:
            self.by_verdict.setdefault(self.table["verdicts"][candidate_key(c)], []).append(c)
        rng = random.Random(f"search-{self.seed}")
        dealt = []
        for verdict in self.table["stages"]:
            stratum = list(self.by_verdict[verdict])
            rng.shuffle(stratum)
            dealt += stratum
        self.slots = [dealt[k::DRAWS] for k in range(DRAWS)]
        warm = [c for c in cands if c.labels == basis_search.BASIS_CLASS_CONTENT["c"]]
        warm += self.by_verdict["boundary_counts"]
        full_rank = [c for c in cands if self.table["verdicts"][candidate_key(c)] != "candidates"]
        left = {K for c in full_rank for K in c.multisets}
        while left:
            best = max(full_rank, key=lambda c: (len(left.intersection(c.multisets)),
                                                 candidate_key(c)))
            warm.append(best)
            left.difference_update(best.multisets)
        # traced, the pass stays out of the spans: they describe the draws
        with self.tracer.paused() if self.tracer else nullcontext():
            basis_search.filter_pipeline(candidates=warm)

    def draw(self, i: int) -> list:
        out = list(self.slots[SLOT_STEP * i % DRAWS])
        random.Random(f"search-{self.seed}-{i}").shuffle(out)
        return out

    def expected_counts(self, draw) -> dict:
        stages = self.table["stages"]
        ranks = [stages.index(self.table["verdicts"][candidate_key(c)]) for c in draw]
        return {s: sum(1 for r in ranks if r >= k) for k, s in enumerate(stages)}

    def op(self, i: int) -> tuple:
        """One draw through the pipeline: (seconds, attempted, failed)."""
        draw = self.draw(i)
        t0 = time.perf_counter()
        report = self.bs.filter_pipeline(candidates=draw)
        dt = time.perf_counter() - t0
        ok = report.counts == self.expected_counts(draw) and self.survivors_ok(draw, report)
        return dt, 1, 0 if ok else 1

    def survivors_ok(self, draw, report) -> bool:
        from ps12splines.marsden_catalog import catalog

        want = sorted(bid for c in draw for bid, content in
                      self.bs.BASIS_CLASS_CONTENT.items() if c.labels == content)
        if sorted(s.basis_id for s in report.survivors) != want:
            return False
        for s in report.survivors:
            stored = {el.multiset: (el.weight, el.domain_point)
                      for el in catalog(s.basis_id).elements}
            got = {K: (w, xi) for K, w, xi in zip(s.multisets, s.weights, s.domain_points)}
            if got != stored:
                return False
        return True

    def record(self) -> dict:
        return {"draw_size": len(self.slots[0]), "draws_per_cycle": DRAWS,
                "slot_step": SLOT_STEP}
