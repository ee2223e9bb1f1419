"""Acceptance criteria, one test per criterion.

Each test prints a PASS line when its assertions hold, so running
``pytest -s tests/test_acceptance.py`` gives a one-line-per-criterion
summary.  Everything exact is checked with rational equality; float-layer
tolerances are stated inline.
"""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import rational_points
from ps12splines.geometry import (
    Point2,
    from_bary,
    locate_face,
    make_frame,
    reference_frame,
    to_bary,
)
from ps12splines.marsden_catalog import (
    BASIS_IDS,
    catalog,
    quasi_interpolant_coeffs,
)
from ps12splines.simplex_spline import eval_simplex, integral, knots, per_face_bernstein
from ps12splines.spline_fn import (
    Spline,
    basis_values,
    collocation_at_domain_points,
    eval_many,
    eval_spline,
    face_forms,
    lagrange_interpolate,
)

PASS = "ACCEPTANCE {n}: PASS - {what}"


def test_criterion_1_pipeline_counts(pipeline_report):
    got = list(pipeline_report.counts.items())
    assert got == [("candidates", 3648), ("full_rank", 1024), ("nonnegative", 243),
                   ("positive", 47), ("domain_inside", 9), ("boundary_counts", 7),
                   ("linear_factors", 6)]
    print(PASS.format(n=1, what="search pipeline counts (3648, 1024, 243, 47, 9, 7, 6) exact"))


def test_criterion_2_six_bases_match_catalog(pipeline_report):
    assert [s.basis_id for s in pipeline_report.survivors] == list("abcdef")
    for s in pipeline_report.survivors:
        spec = catalog(s.basis_id)
        derived = dict(zip(s.multisets, zip(s.weights, s.dual_points, s.domain_points)))
        for el in spec.elements:
            w, duals, xi = derived[el.multiset]
            assert w == el.weight
            assert xi == el.domain_point
            assert tuple(sorted(duals)) == el.dual_points
        # class completion is symmetry-consistent: one weight per class
        per_class = {}
        for el in spec.elements:
            per_class.setdefault(el.class_label, set()).add(el.weight)
        assert all(len(v) == 1 for v in per_class.values())
    print(PASS.format(n=2, what="derived weights/dual polynomials/domain points equal "
                               "the stored tables for all six bases"))


def test_criterion_3_dimension_table():
    from ps12splines.dual_functionals import dim_split_space
    from test_dual_functionals import DIM_TABLE
    for d, row in DIM_TABLE.items():
        for idx, expected in enumerate(row):
            assert dim_split_space(idx - 1, d) == expected
    assert dim_split_space(3, 5) == 39 and dim_split_space(2, 4) == 34
    print(PASS.format(n=3, what="dimension table reproduced exactly for d <= 9; "
                               "dim C3 quintics = 39, dim C2 quartics = 34"))


def test_criterion_4_condition_number():
    from ps12splines.linalg import inf_norm
    M, _, cond = collocation_at_domain_points("c")
    assert inf_norm([list(r) for r in M]) == 1
    assert cond == F(60866923187443943219194678615331, 836197581250152380489105335680)
    assert abs(float(cond) - 72.7901) < 1e-4
    print(PASS.format(n=4, what="basis-c condition number equals its known exact "
                               "fraction (~72.7901); ||M||_inf = 1"))


def test_criterion_5_restriction_tables():
    from ps12splines.assembly import edge_restriction_tables
    from test_assembly import REFERENCE_ROWS, SCALES, restrictions_equal
    from tripoly import TriPoly
    tables = edge_restriction_tables()
    checked = 0
    for i, per_k in REFERENCE_ROWS.items():
        for k in range(4):
            derived = tables[i - 1][k]
            assert set(derived) == set(per_k[k]), (i, k)
            for j, poly in per_k[k].items():
                assert restrictions_equal(TriPoly(derived[j]) * F(1, SCALES[k]), poly), (i, k, j)
                checked += 1
    for i in range(26, 40):
        assert all(not tables[i - 1][k] for k in range(4))
    print(PASS.format(n=5, what=f"all four derivative-restriction tables regenerated "
                                f"symbolically ({checked} nonzero entries equal the "
                                f"frozen reference; rows 26-39 vanish)"))


def test_criterion_6_marsden_identity_and_reproduction():
    rng = random.Random(2024)
    for bid in BASIS_IDS:
        spec = catalog(bid)
        for _ in range(200):
            x = F(rng.randint(0, 60), 61)
            y = F(rng.randint(0, 61 - int(61 * x / 1)), 61)
            if x + y > 1:
                x, y = 1 - x, 1 - y
            beta = (1 - x - y, x, y)
            c = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3))
            s = basis_values(bid, beta)
            lhs = (beta[0] * c[0] + beta[1] * c[1] + beta[2] * c[2]) ** 5
            rhs = 0
            pou = 0
            ident = [0, 0, 0]
            for el, sv in zip(spec.elements, s):
                if sv == 0:
                    continue
                psi = F(1)
                for p in el.dual_points:
                    psi = psi * (p[0] * c[0] + p[1] * c[1] + p[2] * c[2])
                rhs += sv * psi
                pou += sv
                for t in range(3):
                    ident[t] += el.domain_point[t] * sv
            assert lhs == rhs
            assert pou == 1
            assert tuple(ident) == beta
    print(PASS.format(n=6, what="degree-5 reproduction identity, partition of unity and "
                               "domain-point identity exact at 200 rational samples "
                               "per basis"))


def test_criterion_7_quasi_interpolation():
    ref = reference_frame()
    spec = catalog("c")
    # exact reproduction of all 21 Bernstein quintics
    from math import factorial
    for i1 in range(6):
        for i2 in range(6 - i1):
            i3 = 5 - i1 - i2

            def bern(x, y):
                b = to_bary(ref, Point2(x, y))
                return F(factorial(5), factorial(i1) * factorial(i2) * factorial(i3)) \
                    * b[0] ** i1 * b[1] ** i2 * b[2] ** i3

            L = quasi_interpolant_coeffs(spec, bern)
            for p in rational_points(2, seed=61):
                beta = to_bary(ref, p)
                got = sum(l * s for l, s in zip(L, basis_values("c", beta)))
                assert got == bern(p.x, p.y)
    # order-6 convergence on exp(x + y) under triangle scaling (float layer)
    errs = []
    lattice = []
    n = 12
    for i in range(n + 1):
        for j in range(n + 1 - i):
            lattice.append((i / n, j / n, (n - i - j) / n))
    barys = np.array(lattice)
    for h in (0.5, 0.25, 0.125):
        frame = make_frame(Point2(0.0, 0.0), Point2(h, 0.0), Point2(0.0, h))
        L = quasi_interpolant_coeffs(catalog("c"), lambda x, y: math.exp(x + y), frame)
        s = Spline(frame, "c", tuple(float(v) for v in L))
        worst = 0.0
        for b in barys:
            p = from_bary(frame, tuple(b))
            worst = max(worst, abs(eval_spline(s, p) - math.exp(p.x + p.y)))
        errs.append(worst)
    slopes = [math.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert all(5.6 <= s <= 6.4 for s in slopes), (errs, slopes)
    print(PASS.format(n=7, what=f"quasi-interpolant reproduces the 21 quintic Bernstein "
                                f"polynomials exactly; exp error slopes {tuple(round(s, 2) for s in slopes)} "
                                f"within 6 +/- 0.4"))


def test_criterion_8_smoothness():
    from ps12splines.assembly import (GlobalSpline, c3_residual, propagate,
                                      triangulation, verify_smoothness)
    spec = catalog("c")
    T = reference_frame()
    vt3 = Point2(F(2, 3), F(-4, 5))
    beta = to_bary(T, vt3)
    rng = random.Random(81)
    coeffs = [F(rng.randint(-15, 15), 4) for _ in range(39)]
    # make the data order-3 compatible: zero the single-patch relation by
    # adjusting one involved coefficient (random data is provably infeasible)
    from ps12splines.assembly import smoothness_system
    cons = dict(smoothness_system(3, beta).constraint)
    coeffs[11] -= c3_residual(coeffs, beta) / cons[11]
    assert c3_residual(coeffs, beta) == 0
    ctil, feasible = propagate(coeffs, beta, order=3)
    assert feasible
    full_t = tuple(ctil) + (F(0),) * 14
    tri = triangulation([T.v[0], T.v[1], T.v[2], vt3], [(0, 1, 2), (0, 1, 3)])
    gs = GlobalSpline(tri, (tuple(coeffs), full_t))
    rep = verify_smoothness(gs, (0, 1), 3, samples=15)
    assert all(j == 0 for j in rep["jumps"].values())      # exact layer
    gsf = GlobalSpline(
        triangulation([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (float(vt3.x), float(vt3.y))],
                      [(0, 1, 2), (0, 1, 3)]),
        (tuple(map(float, coeffs)), tuple(map(float, full_t))))
    repf = verify_smoothness(gsf, (0, 1), 3, samples=15, tol=1e-10)
    assert repf["pass"]                                     # float layer
    bump = list(full_t)
    bump[8] += 1
    gs2 = GlobalSpline(tri, (tuple(coeffs), tuple(bump)))
    rep2 = verify_smoothness(gs2, (0, 1), 1, samples=15)
    assert rep2["jumps"][1] > F(1, 10)
    # the order-3 single-patch relation: zero for polynomial data, not for random
    xs = [from_bary(T, el.domain_point) for el in spec.elements]
    poly_coeffs = [p.x ** 2 * p.y for p in xs]   # degree-3 polynomial values
    s_poly = lagrange_interpolate("c", T, poly_coeffs)
    assert c3_residual(s_poly.coeffs, beta) == 0
    generic = [F(rng.randint(-15, 15), 7) for _ in range(39)]
    assert c3_residual(generic, beta) != 0
    print(PASS.format(n=8, what="propagated joins verify with zero jumps through order 3 "
                               "(exact and float); perturbing the ninth coefficient breaks "
                               "order 1; the single-patch relation separates polynomial "
                               "from generic data"))


def test_criterion_9_nodal_and_hexagon():
    from ps12splines.assembly import hexagon_demo, nodal_q_coefficients, verify_smoothness
    from ps12splines.dual_functionals import apply, build_lambda, lambda_vector
    from ps12splines.linalg import inverse
    spec = catalog("c")
    rows = nodal_q_coefficients()
    lam = [lambda_vector(el.multiset) for el in spec.elements]
    for i in range(39):
        for j in range(39):
            assert sum(rows[i][k] * lam[k][j] for k in range(39)) == (1 if i == j else 0)
    # conversion coefficients recomputed on two frames of different geometry
    for corners in (((F(0), F(0)), (F(1), F(0)), (F(0), F(1))),
                    ((F(-3), F(2)), (F(5), F(1)), (F(1), F(7)))):
        frame = make_frame(*(Point2(*c) for c in corners))
        lams = build_lambda(frame)
        A = []
        for el in spec.elements:
            ff = face_forms(Spline(frame, "c", tuple(F(e is el) for e in spec.elements)))
            A.append([apply(l, ff) / el.weight for l in lams])
        assert tuple(tuple(r) for r in inverse(A)) == rows
    hx = hexagon_demo()
    for e in hx.tri.interior_edges():
        rep = verify_smoothness(hx, e, 2, samples=11, tol=1e-10)
        assert rep["pass"], (e, rep)
    print(PASS.format(n=9, what="nodal duality exact for all 39^2 pairs; conversion "
                               "coefficients bit-identical across two frames; hexagon demo "
                               "is order-2 smooth across all interior edges"))


def test_criterion_10_property_suites(ref):
    # half-open partition on a dense rational grid (10^4 points incl. edges)
    count = 0
    for i in range(101):
        for j in range(101 - i):
            fi = locate_face(ref, Point2(F(i, 100), F(j, 100)))
            assert fi is not None
            count += 1
    assert count == 5151
    for extra in rational_points(4849, denom=89, seed=91, interior=False):
        assert locate_face(ref, extra) is not None
        count += 1
    assert count == 10 ** 4
    # integral formula against exact per-face quadrature
    for lab in ("600101", "121211", "222110", "322100"):
        table = per_face_bernstein(ref, knots(lab))
        total = F(0)
        for fi in range(1, 13):
            a, b, c = ref.face_corners(fi)
            area = abs((b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)) / 2
            total += area * sum(table[fi - 1]) / 21
        assert total == integral(ref, knots(lab))
    # derivative against central differences: halving h divides the error by ~4
    from ps12splines.simplex_spline import derivative
    K = knots("220211")
    u = (F(1), F(-1, 3), F(-2, 3))
    d = derivative(ref, K, u, 1)
    p = Point2(F(31, 100), F(11, 50))
    exact = float(d(p))
    vx = float(u[1]) * 1.0
    vy = float(u[2]) * 1.0
    errs = []
    for h in (1e-3, 5e-4):
        plus = eval_simplex(ref, K, Point2(p.x + F(h).limit_denominator(10 ** 9) * F(vx).limit_denominator(3),
                                           p.y + F(h).limit_denominator(10 ** 9) * F(vy).limit_denominator(3)))
        minus = eval_simplex(ref, K, Point2(p.x - F(h).limit_denominator(10 ** 9) * F(vx).limit_denominator(3),
                                            p.y - F(h).limit_denominator(10 ** 9) * F(vy).limit_denominator(3)))
        errs.append(abs(float(plus - minus) / (2 * h) - exact))
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5
    # stability sandwich over 100 random coefficient vectors
    _, _, cond = collocation_at_domain_points("c")
    rng = random.Random(92)
    lattice = []
    n = 14
    for i in range(n + 1):
        for j in range(n + 1 - i):
            lattice.append((i / n, j / n, (n - i - j) / n))
    barys = np.array(lattice)
    for _ in range(100):
        coeffs = tuple(F(rng.randint(-100, 100)) for _ in range(39))
        s = Spline(ref, "c", coeffs)
        grid_max = float(max(abs(v) for v in eval_many(s, barys)))
        cmax = float(max(abs(x) for x in coeffs))
        assert grid_max <= cmax + 1e-9
        assert cmax <= 1.05 * float(cond) * grid_max
    print(PASS.format(n=10, what="half-open partition (10^4 points), exact integral "
                                "quadrature, derivative difference-quotient ratio ~4, "
                                "and the stability sandwich all hold"))
