"""The ``library_*`` workloads: steady-state evaluation and assembly throughput.

One long-lived process builds the tables its part uses once (the set-up),
then runs operations of one part of a seeded mix through the public API.
Each part times two layers, sized so that each takes a third to two thirds
of the operation's time (the measured shares are in BASELINE.md), and each
part is its own workload, so a gain for one layer that costs another shows.
An operation visits the six bases a-f, each on its own seeded non-unit
rational frame, and times only the library calls:

* ``exact``: two ``lagrange_interpolate`` calls per basis (values of a seeded
  quintic P at the 39 domain points, and 39 random rationals R), then exact
  ``eval_spline`` of the R-interpolant at ROUND_TRIP of its domain points
  (the Lagrange round trip; successive operations rotate through all 39)
  and of the P-interpolant at EXACT_POINTS seeded rational points (exact
  reproduction of P);
* ``float``: float ``eval_spline`` of the P-interpolant at FLOAT_POINTS
  points, one call per point, and one ``eval_many`` batch of BATCH points,
  per basis;
* ``assembly``: exact ``hermite_interpolate`` on the jets of a seeded global
  quintic over a perturbed 1 x 1 grid (2 triangles) and on random data over
  a perturbed 2 x 2 grid (8 triangles), then exact ``verify_smoothness`` up
  to order 2 on every interior edge of the random-data spline.

Every output is checked against the mathematics in refmath: the data itself
for the round trip, the polynomial for reproduction, a stated bound for the
float layer, and exactly zero jumps for the C2 joins.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction as F

import numpy as np
from ps12splines import assembly, geometry, spline_fn
from ps12splines.marsden_catalog import catalog

import refmath

#: Checks evaluate through the library's function object as imported here,
#: before any tracing wrapper replaces the module attribute.
_check_eval = spline_fn.eval_spline

BASES = "abcdef"
ROUND_TRIP = 6          # per basis and operation
EXACT_POINTS = 1        # per basis and operation
FLOAT_POINTS = 300      # per basis and operation
BATCH = 500             # one batch per basis and operation
CHECKED_FLOATS = 3      # float results checked per basis, point and batch each
VERIFY_SAMPLES = 5
VERIFY_ORDER = 2

#: The figures each part reports, one value per operation.
RATES = {
    "exact": ("eval_exact_pts_per_s", "interp_per_s"),
    "float": ("eval_float_point_pts_per_s", "eval_float_batch_pts_per_s"),
    "assembly": ("hermite_tris_per_s", "verify_edges_per_s"),
}


class LibraryWork:
    def __init__(self, seed: int, part: str):
        self.seed = seed
        self.part = part
        self.rates = {k: [] for k in RATES[part]}
        self.located = []   # barycentric points of every evaluation, for the traced pass

    def setup(self):
        """Import and the tables the part uses: for exact and float, the
        per-face tables and collocation inverses of bases a-f; for assembly,
        the tables of basis c (the global splines' basis), the edge
        restriction tables and the nodal tables."""
        if self.part == "assembly":
            spline_fn.scaled_basis_tables("c")
            assembly.edge_restriction_tables()
            assembly.nodal_q_coefficients()
            return
        for b in BASES:
            spline_fn.scaled_basis_tables(b)
            spline_fn.collocation_at_domain_points(b)

    def op(self, i: int) -> tuple:
        """One operation of the part: (seconds, attempted, failed)."""
        rng = random.Random(f"library-{self.part}-{self.seed}-{i}")
        busy, work, attempted, failed = getattr(self, "_" + self.part)(rng, i)
        for metric, key in zip(RATES[self.part], busy):
            self.rates[metric].append(work[key] / busy[key])
        return sum(busy.values()), attempted, failed

    def _interpolant(self, rng, b: str) -> tuple:
        """A seeded frame for basis b and a seeded quintic P with its values
        at the frame's 39 domain points."""
        corners = refmath.random_frame_corners(rng)
        frame = geometry.make_frame(*(geometry.Point2(*c) for c in corners))
        P = refmath.Poly2.random(rng)
        vals = [P(*refmath.point_at(corners, el.domain_point)) for el in catalog(b).elements]
        return corners, frame, P, vals

    def _exact(self, rng, i: int) -> tuple:
        T, Point2 = time.perf_counter, geometry.Point2
        busy = {"exact": 0.0, "interp": 0.0}
        work = {"exact": 0, "interp": 0}
        failed = 0
        for k, b in enumerate(BASES):
            corners, frame, P, vals_p = self._interpolant(rng, b)
            vals_r = [refmath.random_rational(rng, 50, 30) for _ in range(39)]
            t = T()
            sp = spline_fn.lagrange_interpolate(b, frame, vals_p)
            sr = spline_fn.lagrange_interpolate(b, frame, vals_r)
            busy["interp"] += T() - t
            work["interp"] += 2

            elements = catalog(b).elements
            start = ROUND_TRIP * (len(BASES) * i + k)
            picked = [(start + j) % len(elements) for j in range(ROUND_TRIP)]
            betas_r = [elements[j].domain_point for j in picked]
            betas_p = [refmath.random_bary(rng) for _ in range(EXACT_POINTS)]
            xy_r = [Point2(*refmath.point_at(corners, beta)) for beta in betas_r]
            xy_p = [Point2(*refmath.point_at(corners, beta)) for beta in betas_p]
            t = T()
            got_r = [spline_fn.eval_spline(sr, p) for p in xy_r]
            got_p = [spline_fn.eval_spline(sp, p) for p in xy_p]
            busy["exact"] += T() - t
            work["exact"] += len(got_r) + len(got_p)
            failed += sum(g != vals_r[j] for g, j in zip(got_r, picked))
            failed += sum(g != P(p.x, p.y) for g, p in zip(got_p, xy_p))
            self.located.append(("exact", betas_r + betas_p))
        return busy, work, work["exact"] + work["interp"], failed

    def _float(self, rng, i: int) -> tuple:
        T, Point2 = time.perf_counter, geometry.Point2
        busy = {"float": 0.0, "batch": 0.0}
        work = {"float": 0, "batch": 0}
        attempted = failed = 0
        for b in BASES:
            corners, frame, P, vals = self._interpolant(rng, b)
            sp = spline_fn.lagrange_interpolate(b, frame, vals)
            fcorners = [Point2(float(x), float(y)) for x, y in corners]
            fs = spline_fn.Spline(geometry.make_frame(*fcorners), b,
                                  tuple(float(c) for c in sp.coeffs))
            bound = refmath.float_bound(sp.coeffs)
            fpts = [Point2(*refmath.point_at(fcorners, _float_bary(rng)))
                    for _ in range(FLOAT_POINTS)]
            t = T()
            got_f = [spline_fn.eval_spline(fs, p) for p in fpts]
            busy["float"] += T() - t
            work["float"] += len(got_f)
            attempted += len(got_f)
            failed += sum(abs(got_f[k] - float(P(F(fpts[k].x), F(fpts[k].y)))) > bound
                          for k in range(CHECKED_FLOATS))

            barys = np.array([_float_bary(rng) for _ in range(BATCH)])
            t = T()
            got_m = spline_fn.eval_many(sp, barys)
            busy["batch"] += T() - t
            work["batch"] += BATCH
            attempted += 1
            exact_at = [P(*refmath.point_at(corners, [F(x) for x in barys[k]]))
                        for k in range(CHECKED_FLOATS)]
            failed += int(len(got_m) != BATCH or any(
                abs(got_m[k] - float(exact_at[k])) > bound for k in range(CHECKED_FLOATS)))
            self.located.append(("float", fs, fpts, barys))
        return busy, work, attempted, failed

    def _assembly(self, rng, i: int) -> tuple:
        T, Point2 = time.perf_counter, geometry.Point2
        busy = {}
        failed = 0
        # Hermite assembly: reproduction of a global quintic, then random data
        verts_q, tris_q = refmath.perturbed_grid(rng, 1, 1)
        Q = refmath.Poly2.random(rng)
        jets_q, edges_q = refmath.hermite_data_of(Q, verts_q, tris_q)
        verts_r, tris_r = refmath.perturbed_grid(rng, 2, 2)
        jets_r, edges_r = refmath.random_hermite_data(rng, verts_r, tris_r)
        tri_q = assembly.triangulation(verts_q, tris_q)
        tri_r = assembly.triangulation(verts_r, tris_r)
        t = T()
        gs_q = assembly.hermite_interpolate(tri_q, jets_q, edges_q)
        gs_r = assembly.hermite_interpolate(tri_r, jets_r, edges_r)
        busy["hermite"] = T() - t
        for k, tri in enumerate(tris_q):
            beta = refmath.random_bary(rng)
            while 0 in beta:
                beta = refmath.random_bary(rng)
            x, y = refmath.point_at([verts_q[v] for v in tri], beta)
            failed += _check_eval(gs_q.spline(k), Point2(x, y)) != Q(x, y)

        edges = tri_r.interior_edges()
        t = T()
        reports = [assembly.verify_smoothness(gs_r, e, VERIFY_ORDER, samples=VERIFY_SAMPLES)
                   for e in edges]
        busy["verify"] = T() - t
        failed += sum(any(j != 0 for j in r["jumps"].values()) for r in reports)
        work = {"hermite": len(tris_q) + len(tris_r), "verify": len(edges)}
        return busy, work, 2 + len(reports), failed

    def traced_pass(self, tr):
        """Time geometry.locate_face_bary directly over every point the
        operations evaluated: a wrapper per call would cost more than the call."""
        betas = []
        for kind, *rest in self.located:
            if kind == "exact":
                betas += rest[0]
            else:
                fs, fpts, barys = rest
                betas += [tuple(float(x) for x in geometry.to_bary(fs.frame, p)) for p in fpts]
                betas += [tuple(map(float, b)) for b in barys]
        idx = tr.begin("geometry.locate_face_bary")
        for beta in betas:
            geometry.locate_face_bary(*beta)
        tr.end(idx)

    def record(self) -> dict:
        rec = {"part": self.part, "bases_per_op": BASES}
        if self.part == "exact":
            rec.update(round_trip_points_per_basis=ROUND_TRIP,
                       reproduction_points_per_basis=EXACT_POINTS, interps_per_basis=2)
        elif self.part == "float":
            rec.update(float_points_per_basis=FLOAT_POINTS, batch_size=BATCH,
                       checked_per_basis=CHECKED_FLOATS,
                       float_bound="1e-9 * max(1, max |c_i|)")
        else:
            rec.update(verify_samples=VERIFY_SAMPLES, verify_order=VERIFY_ORDER,
                       meshes="1x1 (2 triangles, jets of a quintic), "
                              "2x2 (8 triangles, random data)")
        return rec


def _float_bary(rng: random.Random) -> tuple:
    a, b = rng.random(), rng.random()
    if a + b > 1:
        a, b = 1 - a, 1 - b
    return (a, b, 1.0 - a - b)
