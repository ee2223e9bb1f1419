import random
from fractions import Fraction as F
from functools import cached_property, reduce
from math import lcm
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import join_check_oracle
from join_check_oracle import cross_derivative
from conftest import rational_points
from knot_oracles import bspline_derivative, derivative_expansion, restrict_to_edge
from tripoly import TriPoly
from ps12splines import assembly
from ps12splines.assembly import (
    N_BLOCKS,
    GlobalSpline,
    Triangulation,
    _apply_rows,
    _edge_rows,
    _smoothness_symbolic,
    c3_residual,
    edge_restriction_tables,
    hermite_interpolate,
    hexagon_demo,
    nodal_basis,
    nodal_q_coefficients,
    propagate,
    smoothness_system,
    triangulation,
    verify_smoothness,
)
from ps12splines.bspline1d import UnivariateBSplineRef
from ps12splines.dual_functionals import JET_ORDERS, apply, build_lambda, lambda_vector
from ps12splines.errors import DimensionMismatch, DomainError, NonConformingMesh
from ps12splines.geometry import (EDGES, VERTEX_BARY, Point2, _as_bary, direction_coords,
                                  face_bary, from_bary, locate_face_bary, make_frame,
                                  reference_frame, to_bary)
from ps12splines.linalg import mat_vec
from ps12splines.marsden_catalog import catalog
from ps12splines.rational import common_denominator, is_exact
from ps12splines.serialize import dumps, global_spline_to_dict
from ps12splines.simplex_spline import _row_terms, functional_row, knots
from ps12splines.spline_fn import eval_spline, face_forms, lagrange_interpolate, scaled_basis_tables

a1, a2, a3 = (TriPoly.variable(i) for i in range(3))
b1, b2, b3 = (TriPoly.variable(i) for i in range(3))
ONE = TriPoly.const(1)

# ---------------------------------------------------------------------------
# The reference restriction tables, frozen for regression: orders scaled as
# value, D/5, D^2/20, D^3/60.  Three entries whose degree superscripts were
# inconsistent with the derivative order have been normalized; the symbolic
# derivation independently confirms every entry.
# ---------------------------------------------------------------------------
REFERENCE_ROWS = {
    1: [{1: 4 * ONE}, {1: 8 * a1}, {1: 16 * a1 * a1}, {1: 32 * a1 ** 3}],
    2: [{2: 4 * ONE}, {1: 8 * a2, 2: 8 * a1},
        {1: 32 * a1 * a2, 2: 16 * a1 * a1},
        {1: 96 * a1 * a1 * a2, 2: 32 * a1 ** 3}],
    3: [{3: 2 * ONE}, {2: 4 * a2, 3: 2 * (2 * a1 + a2)},
        {1: 8 * a2 * a2, 2: 4 * a2 * (4 * a1 + a2), 3: 2 * (2 * a1 + a2) ** 2},
        {1: 8 * a2 * a2 * (6 * a1 + a2),
         2: 4 * a2 * (12 * a1 * a1 + 6 * a1 * a2 + a2 * a2),
         3: 2 * (2 * a1 + a2) ** 3}],
    4: [{4: 2 * ONE}, {3: 2 * a2, 4: 2 * (2 * a1 + a2)},
        {2: 4 * a2 * a2, 3: 4 * a2 * (2 * a1 + a2), 4: 2 * (2 * a1 + a2) ** 2},
        {1: 8 * a2 ** 3, 2: 8 * a2 * a2 * (3 * a1 + a2),
         3: 6 * a2 * (2 * a1 + a2) ** 2, 4: 4 * (2 * a1 + a2) ** 3}],
    5: [{5: 2 * ONE}, {4: 2 * (a1 + 2 * a2), 5: 2 * a1},
        {3: 2 * (a1 + 2 * a2) ** 2, 4: 4 * a1 * (a1 + 2 * a2), 5: 4 * a1 * a1},
        {2: 4 * (a1 + 2 * a2) ** 3, 3: 6 * a1 * (a1 + 2 * a2) ** 2,
         4: 8 * a1 * a1 * (a1 + 3 * a2), 5: 8 * a1 ** 3}],
    6: [{6: 2 * ONE}, {5: 2 * (a1 + 2 * a2), 6: 4 * a1},
        {4: 2 * (a1 + 2 * a2) ** 2, 5: 4 * a1 * (a1 + 4 * a2), 6: 8 * a1 * a1},
        {3: 2 * (a1 + 2 * a2) ** 3,
         4: 4 * a1 * (a1 * a1 + 6 * a1 * a2 + 12 * a2 * a2),
         5: 8 * a1 * a1 * (a1 + 6 * a2)}],
    7: [{7: 4 * ONE}, {6: 8 * a2, 7: 8 * a1},
        {5: 16 * a2 * a2, 6: 32 * a1 * a2},
        {4: 32 * a2 ** 3, 5: 96 * a1 * a2 * a2}],
    8: [{8: 4 * ONE}, {7: 8 * a2}, {6: 16 * a2 * a2}, {5: 32 * a2 ** 3}],
    9: [{}, {1: 8 * a3}, {1: 32 * a1 * a3}, {1: 96 * a1 * a1 * a3}],
    10: [{}, {2: 2 * a3, 3: a3},
         {1: 8 * a2 * a3, 2: 2 * a3 * (3 * a1 + a2), 3: a3 * (3 * a1 + a2)},
         {1: 36 * a1 * a2 * a3,
          2: 2 * a3 * (7 * a1 * a1 + 5 * a1 * a2 + a2 * a2),
          3: a3 * (7 * a1 * a1 + 5 * a1 * a2 + a2 * a2)}],
    11: [{}, {3: 2 * a3},
         {2: 8 * a2 * a3, 3: 2 * a3 * (3 * a1 + a2)},
         {1: 24 * a2 * a2 * a3, 2: 36 * a1 * a2 * a3,
          3: 2 * a3 * (7 * a1 * a1 + 5 * a1 * a2 + a2 * a2)}],
    12: [{}, {4: 4 * a3},
         {3: 4 * a3 * (a1 + 3 * a2), 4: 4 * a3 * (3 * a1 + a2)},
         {2: 8 * a3 * (a1 * a1 + 5 * a1 * a2 + 7 * a2 * a2),
          3: 8 * a3 * (2 * a1 * a1 + 7 * a1 * a2 + 2 * a2 * a2),
          4: 8 * a3 * (7 * a1 * a1 + 5 * a1 * a2 + a2 * a2)}],
    13: [{}, {5: 2 * a3},
         {4: 2 * a3 * (a1 + 3 * a2), 5: 8 * a1 * a3},
         {3: 2 * a3 * (a1 * a1 + 5 * a1 * a2 + 7 * a2 * a2),
          4: 36 * a1 * a2 * a3, 5: 24 * a1 * a1 * a3}],
    14: [{}, {5: a3, 6: 2 * a3},
         {4: a3 * (a1 + 3 * a2), 5: 2 * a3 * (a1 + 3 * a2), 6: 8 * a1 * a3},
         {3: a3 * (a1 * a1 + 5 * a1 * a2 + 7 * a2 * a2),
          4: 2 * a3 * (a1 * a1 + 5 * a1 * a2 + 7 * a2 * a2),
          5: 36 * a1 * a2 * a3}],
    15: [{}, {7: 8 * a3}, {6: 32 * a2 * a3}, {5: 96 * a2 * a2 * a3}],
    16: [{}, {}, {1: 8 * a3 * a3}, {1: 8 * a3 * a3 * (5 * a1 - a2)}],
    17: [{}, {}, {2: 4 * a3 * a3, 3: 2 * a3 * a3},
         {1: 24 * a2 * a3 * a3, 2: 4 * a3 * a3 * (5 * a1 + 2 * a2),
          3: 2 * a3 * a3 * (5 * a1 + 2 * a2)}],
    18: [{}, {}, {3: 4 * a3 * a3},
         {2: 8 * a3 * a3 * (a1 + 4 * a2), 3: 4 * a3 * a3 * (4 * a1 + a2)}],
    19: [{}, {}, {4: 4 * a3 * a3},
         {3: 4 * a3 * a3 * (a1 + 4 * a2), 4: 8 * a3 * a3 * (4 * a1 + a2)}],
    20: [{}, {}, {4: 2 * a3 * a3, 5: 4 * a3 * a3},
         {3: 2 * a3 * a3 * (5 * a2 + 2 * a1), 4: 4 * a3 * a3 * (5 * a2 + 2 * a1),
          5: 24 * a1 * a3 * a3}],
    21: [{}, {}, {6: 8 * a3 * a3}, {5: 8 * a3 * a3 * (5 * a2 - a1)}],
    22: [{}, {}, {}, {1: 8 * a3 ** 3}],
    23: [{}, {}, {}, {2: 8 * a3 ** 3, 3: 4 * a3 ** 3}],
    24: [{}, {}, {}, {3: 4 * a3 ** 3, 4: 8 * a3 ** 3}],
    25: [{}, {}, {}, {5: 8 * a3 ** 3}],
}

SCALES = (1, 5, 20, 60)


def restrictions_equal(p: TriPoly, q: TriPoly) -> bool:
    """Equality of restriction coefficients as directional-derivative data:
    directional coordinates sum to 0, so both are compared after
    substituting a1 = -(a2 + a3)."""
    return p.evaluate(-(a2 + a3), a2, a3) == q.evaluate(-(a2 + a3), a2, a3)


def test_restriction_tables_equal_reference_rows():
    tables = edge_restriction_tables()
    for i, per_k in REFERENCE_ROWS.items():
        for k in range(4):
            derived = tables[i - 1][k]
            expected = per_k[k]
            assert set(derived) == set(expected), (i, k)
            for j, poly in expected.items():
                assert restrictions_equal(TriPoly(derived[j]) * F(1, SCALES[k]), poly), (i, k, j)
    for i in range(26, 40):
        assert all(not tables[i - 1][k] for k in range(4)), i


def test_restriction_tables_equal_the_knot_multiset_path():
    """The tables, read off the face ordinates, against the knot-multiset
    path: for each of the 25 elements with nonzero tables, k <= 3 and five
    seeded rational directional triples a, sum_j P_ij^k(a) B_j^(5-k) is the
    restriction to [v1, v2] of derivative_expansion(K_i, a, k), term by
    term with restrict_to_edge, grouped by B-spline index."""
    tables = edge_restriction_tables()
    frame = reference_frame()
    rng = random.Random(23)
    directions = []
    for _ in range(5):
        x, y = (F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2))
        directions.append((x, y, -x - y))
    for i, el in enumerate(catalog("c").elements[:N_BLOCKS[3]]):
        for k in range(4):
            for a in directions:
                want = {}
                for coef, m in derivative_expansion(el.multiset, a, k):
                    for c, ref in restrict_to_edge(frame, m, "e3").terms:
                        assert ref.degree == 5 - k
                        want[ref.index] = want.get(ref.index, 0) + coef * c
                got = {j: TriPoly(p).evaluate(*a) for j, p in tables[i][k].items()}
                assert {j: v for j, v in got.items() if v} == \
                    {j: v for j, v in want.items() if v}, (i + 1, k, a)


# ---------------------------------------------------------------------------
# The reference smoothness relations, frozen for regression.
# ---------------------------------------------------------------------------

def _reference_relations():
    """Relations as {target index: {source index: polynomial in beta}},
    both 1-based."""
    rel = {i: {i: ONE} for i in range(1, 9)}
    rel[9] = {1: b1, 2: b2, 9: b3}
    rel[15] = {7: b1, 8: b2, 15: b3}
    rel[10] = {2: b1, 3: b2, 10: b3}
    rel[14] = {6: b1, 7: b2, 14: b3}
    rel[11] = {3: 2 * b1, 2: -1 * b1, 4: b2, 11: b3}
    rel[13] = {5: b1, 6: 2 * b2, 7: -1 * b2, 13: b3}
    rel[12] = {4: (2 * b1 + b2) * F(1, 3), 5: (b1 + 2 * b2) * F(1, 3), 12: b3}
    rel[16] = {1: b1 * b1, 2: 2 * b1 * b2, 3: b2 * b2, 9: 2 * b1 * b3,
               10: 2 * b2 * b3, 16: b3 * b3}
    rel[17] = {2: b1 * b1 - b1 * b2 - b1 * b3, 4: b2 * b2, 17: b3 * b3,
               3: 3 * b1 * b2 - b2 * b3, 10: 3 * b1 * b3 + b2 * b3,
               11: 2 * b2 * b3}
    rel[18] = {
        3: 2 * b1 * b1 * F(1, 3) + 2 * b1 * b2 * F(-2, 6) + 2 * b1 * b3 * F(-2, 6),
        4: 2 * b1 * b1 * F(1, 3) + b2 * b2 * F(1, 3) + 2 * b1 * b2 * F(6, 6)
           + 2 * b1 * b3 * F(2, 6),
        2: b1 * b1 * F(-1, 3) + 2 * b1 * b2 * F(1, 6) + 2 * b1 * b3 * F(1, 6),
        5: b2 * b2 * F(2, 3) + 2 * b1 * b2 * F(1, 6) + 2 * b1 * b3 * F(-1, 6)
           + 2 * b2 * b3 * F(-2, 6),
        11: 2 * b1 * b3 * F(3, 6) + 2 * b2 * b3 * F(-1, 6),
        12: 2 * b1 * b3 * F(3, 6) + 2 * b2 * b3 * F(9, 6),
        18: b3 * b3,
    }
    rel[19] = {
        4: b1 * b1 * F(2, 3) + 2 * b1 * b2 * F(1, 6) + 2 * b2 * b3 * F(-1, 6)
           + 2 * b1 * b3 * F(-2, 6),
        5: b1 * b1 * F(1, 3) + b2 * b2 * F(2, 3) + 2 * b1 * b2 * F(6, 6)
           + 2 * b2 * b3 * F(2, 6),
        6: b2 * b2 * F(2, 3) + 2 * b1 * b2 * F(-2, 6) + 2 * b2 * b3 * F(-2, 6),
        7: b2 * b2 * F(-1, 3) + 2 * b1 * b2 * F(1, 6) + 2 * b2 * b3 * F(1, 6),
        13: 2 * b2 * b3 * F(3, 6) + 2 * b1 * b3 * F(-1, 6),
        12: 2 * b2 * b3 * F(3, 6) + 2 * b1 * b3 * F(9, 6),
        19: b3 * b3,
    }
    rel[20] = {5: b1 * b1, 7: b2 * b2 - b1 * b2 - b2 * b3, 20: b3 * b3,
               6: 3 * b1 * b2 - b1 * b3, 14: b1 * b3 + 3 * b2 * b3,
               13: 2 * b1 * b3}
    rel[21] = {6: b1 * b1, 7: 2 * b1 * b2, 8: b2 * b2, 14: 2 * b1 * b3,
               15: 2 * b2 * b3, 21: b3 * b3}
    B = {(3, 0, 0): b1 ** 3, (0, 3, 0): b2 ** 3, (0, 0, 3): b3 ** 3,
         (2, 1, 0): 3 * b1 * b1 * b2, (1, 2, 0): 3 * b1 * b2 * b2,
         (0, 2, 1): 3 * b2 * b2 * b3, (0, 1, 2): 3 * b2 * b3 * b3,
         (2, 0, 1): 3 * b1 * b1 * b3, (1, 0, 2): 3 * b1 * b3 * b3,
         (1, 1, 1): 6 * b1 * b2 * b3}

    def combo(spec):
        out = {}
        for mono, terms in spec.items():
            for idx, coef in terms:
                out[idx] = out.get(idx, TriPoly.zero()) + B[mono] * coef
        return {i: p for i, p in out.items() if p}

    rel[22] = combo({
        (3, 0, 0): [(1, F(1))],
        (2, 1, 0): [(2, F(4, 3)), (1, F(-1, 3))],
        (1, 2, 0): [(3, F(5, 3)), (2, F(-2, 3))],
        (0, 3, 0): [(4, F(1))],
        (0, 2, 1): [(10, F(1, 3)), (3, F(-1, 3)), (11, F(1))],
        (0, 1, 2): [(10, F(1, 3)), (16, F(-1, 3)), (17, F(1))],
        (0, 0, 3): [(22, F(1))],
        (1, 0, 2): [(16, F(5, 3)), (9, F(-2, 3))],
        (2, 0, 1): [(9, F(4, 3)), (1, F(-1, 3))],
        (1, 1, 1): [(10, F(5, 3)), (2, F(-1, 3)), (9, F(-1, 3))],
    })
    rel[23] = combo({
        (3, 0, 0): [(2, F(1, 3)), (3, F(2, 3))],
        (2, 1, 0): [(2, F(-2, 9)), (3, F(8, 9)), (4, F(3, 9))],
        (1, 2, 0): [(2, F(1, 9)), (3, F(-1, 9)), (4, F(8, 9)), (5, F(1, 9))],
        (0, 3, 0): [(4, F(1, 3)), (5, F(2, 3))],
        (0, 2, 1): [(10, F(1, 9)), (12, F(15, 9)), (3, F(-1, 9)), (4, F(-2, 9)),
                    (5, F(-4, 9))],
        (0, 1, 2): [(12, F(-6, 9)), (17, F(2, 9)), (18, F(12, 9)), (4, F(-1, 9)),
                    (5, F(2, 9))],
        (1, 0, 2): [(10, F(1, 9)), (11, F(3, 9)), (12, F(-3, 9)), (17, F(5, 9)),
                    (18, F(3, 9)), (2, F(1, 9)), (3, F(-2, 9)), (5, F(1, 9))],
        (2, 0, 1): [(10, F(8, 9)), (11, F(3, 9)), (2, F(-2, 9))],
        (1, 1, 1): [(10, F(3, 9)), (11, F(6, 9)), (12, F(3, 9)), (2, F(1, 9)),
                    (3, F(-4, 9)), (4, F(1, 9)), (5, F(-1, 9))],
        (0, 0, 3): [(23, F(1))],
    })
    rel[24] = combo({
        (3, 0, 0): [(4, F(2, 3)), (5, F(1, 3))],
        (2, 1, 0): [(4, F(1, 9)), (5, F(8, 9)), (6, F(-1, 9)), (7, F(1, 9))],
        (1, 2, 0): [(5, F(3, 9)), (6, F(8, 9)), (7, F(-2, 9))],
        (0, 3, 0): [(6, F(2, 3)), (7, F(1, 3))],
        (0, 2, 1): [(13, F(3, 9)), (14, F(8, 9)), (7, F(-2, 9))],
        (0, 1, 2): [(12, F(-3, 9)), (13, F(3, 9)), (14, F(1, 9)), (19, F(3, 9)),
                    (20, F(5, 9)), (4, F(1, 9)), (6, F(-2, 9)), (7, F(1, 9))],
        (1, 0, 2): [(12, F(-6, 9)), (19, F(12, 9)), (20, F(2, 9)), (4, F(2, 9)),
                    (5, F(-1, 9))],
        (2, 0, 1): [(12, F(15, 9)), (14, F(1, 9)), (4, F(-4, 9)), (5, F(-2, 9)),
                    (6, F(-1, 9))],
        (1, 1, 1): [(12, F(3, 9)), (13, F(6, 9)), (14, F(3, 9)), (4, F(-1, 9)),
                    (5, F(1, 9)), (6, F(-4, 9)), (7, F(1, 9))],
        (0, 0, 3): [(24, F(1))],
    })
    rel[25] = combo({
        (3, 0, 0): [(5, F(1))],
        (2, 1, 0): [(6, F(5, 3)), (7, F(-2, 3))],
        (1, 2, 0): [(7, F(4, 3)), (8, F(-1, 3))],
        (0, 3, 0): [(8, F(1))],
        (0, 2, 1): [(15, F(4, 3)), (8, F(-1, 3))],
        (0, 1, 2): [(21, F(5, 3)), (15, F(-2, 3))],
        (1, 0, 2): [(14, F(1, 3)), (20, F(1)), (21, F(-1, 3))],
        (2, 0, 1): [(13, F(1)), (14, F(1, 3)), (6, F(-1, 3))],
        (1, 1, 1): [(14, F(5, 3)), (7, F(-1, 3)), (15, F(-1, 3))],
        (0, 0, 3): [(25, F(1))],
    })
    return rel


def test_smoothness_relations_equal_reference():
    rels, _ = _smoothness_symbolic()
    expected = _reference_relations()
    for i1 in range(1, 26):
        derived = {src + 1: TriPoly(poly) for src, poly in rels[i1 - 1].items()}
        assert derived == expected[i1], (i1, derived, expected[i1])


def test_c3_constraint_matches_reference_up_to_scale():
    _, cons = _smoothness_symbolic()
    T = {}

    def add(poly, idx, coef):
        T[idx - 1] = T.get(idx - 1, TriPoly.zero()) + poly * coef

    groups = [
        ((3 * b1 * b1 * b2 - 3 * b1 * b2 * b2) * F(1, 3),
         [(2, 1), (3, -2), (4, 2), (5, -2), (6, 2), (7, -1)]),
        (3 * b1 * b1 * b3 * F(1, 3),
         [(11, 1), (12, -3), (13, 1), (2, 1), (3, -2), (4, 2)]),
        (3 * b2 * b2 * b3 * F(1, 3),
         [(11, 1), (12, -3), (13, 1), (7, 1), (6, -2), (5, 2)]),
        (3 * b1 * b3 * b3 * F(1, 6),
         [(11, -5), (12, 6), (13, 1), (18, 9), (19, -9), (2, -2), (3, 4), (4, -4)]),
        (3 * b2 * b3 * b3 * F(1, 6),
         [(13, -5), (12, 6), (11, 1), (19, 9), (18, -9), (7, -2), (6, 4), (5, -4)]),
        (6 * b1 * b2 * b3 * F(1, 3),
         [(11, -2), (12, 6), (13, -2), (2, -1), (3, 2), (4, -2), (5, -2), (6, 2), (7, -1)]),
    ]
    for poly, terms in groups:
        for idx, coef in terms:
            add(poly, idx, coef)
    expected = {k: v for k, v in T.items() if v}
    assert sorted(expected) == sorted(cons)
    k0 = sorted(expected)[0]
    e0 = sorted(expected[k0].terms)[0]
    ratio = expected[k0].terms[e0] / cons[k0][e0]
    for k in expected:
        assert expected[k] == TriPoly(cons[k]) * ratio, k


def test_relations_hold_for_domain_points():
    """Substituting the domain points for the coefficients turns every
    relation into an identity between the two triangles' domain points."""
    spec = catalog("c")
    T = reference_frame()
    vt3 = Point2(F(2, 5), F(-3, 4))
    Tt = make_frame(T.v[0], T.v[1], vt3)
    beta = to_bary(T, vt3)
    xs = [from_bary(T, el.domain_point) for el in spec.elements]
    xts = [from_bary(Tt, el.domain_point) for el in spec.elements]
    for coord in (0, 1):
        vals = [p[coord] for p in xs]
        ctil, _ = propagate(vals, beta, order=3)
        for i in range(N_BLOCKS[3]):
            assert ctil[i] == xts[i][coord], (coord, i)
    # the leftover order-3 relation also annihilates the domain points
    for coord in (0, 1):
        assert c3_residual([p[coord] for p in xs], beta) == 0


def test_propagate_c0_symmetry():
    spec = catalog("c")
    rng = random.Random(51)
    coeffs = [F(rng.randint(-20, 20), 7) for _ in range(39)]
    T = reference_frame()
    vt3 = Point2(F(1, 3), F(-1, 2))
    beta = to_bary(T, vt3)
    ctil, _ = propagate(coeffs, beta, order=0)
    assert ctil == coeffs[:8]
    # swapped roles: the neighbour's first eight return the originals
    Tt = make_frame(T.v[0], T.v[1], vt3)
    beta_back = to_bary(Tt, T.v[2])
    full_t = list(ctil) + [F(0)] * 31
    back, _ = propagate(full_t, beta_back, order=0)
    assert back == coeffs[:8]


def _poly_values(frame):
    """Values of a fixed quintic at the basis-c domain points of a frame."""
    import sympy as sp
    x, y = sp.symbols("x y")
    poly = x ** 5 - 3 * x ** 2 * y ** 3 + sp.Rational(1, 4) * y ** 2 + 2 * x - 1

    def val(p):
        r = sp.Rational(poly.subs({x: sp.Rational(p.x.numerator, p.x.denominator),
                                   y: sp.Rational(p.y.numerator, p.y.denominator)}))
        return F(r.p, r.q)

    return [val(from_bary(frame, el.domain_point)) for el in catalog("c").elements]


@settings(max_examples=25, deadline=None)
@given(x=st.fractions(-2, 3, max_denominator=12),
       y=st.fractions(-2, 0, max_denominator=12).filter(lambda v: v < 0))
@example(x=F(3, 7), y=F(-5, 6))
def test_propagate_polynomial_and_flag(x, y):
    """Any far vertex strictly below the edge [v1, v2] (b3 < 0): propagate
    maps a quintic's basis-c coefficients on T to those on the neighbour."""
    T = reference_frame()
    vt3 = Point2(x, y)
    Tt = make_frame(T.v[0], T.v[1], vt3)
    sT = lagrange_interpolate("c", T, _poly_values(T))
    sTt = lagrange_interpolate("c", Tt, _poly_values(Tt))
    beta = to_bary(T, vt3)
    assert beta[2] < 0
    ctil, feasible = propagate(sT.coeffs, beta, order=3)
    assert feasible
    assert tuple(ctil) == sTt.coeffs[:25]
    # constant data propagates to constant data
    cons, feasible = propagate([F(4)] * 39, beta, order=3)
    assert feasible and all(v == 4 for v in cons)


def test_propagate_generic_data_infeasible():
    beta = to_bary(reference_frame(), Point2(F(3, 7), F(-5, 6)))
    rng = random.Random(52)
    cr = [F(rng.randint(-9, 9), 3) for _ in range(39)]
    _, feas = propagate(cr, beta, order=3)
    assert not feas


def test_smoothness_system_beta_sum():
    exact = smoothness_system(3, (F(1, 3), F(1, 2), F(1, 6)))
    assert smoothness_system(3, (1 / 3, 1 / 2, 1 / 6 + 1e-12)).beta == \
        (F(1 / 3), F(1 / 2), 1 - F(1 / 3) - F(1 / 2))
    assert exact.beta == (F(1, 3), F(1, 2), F(1, 6))
    with pytest.raises(DomainError):
        smoothness_system(3, (F(1, 3), F(1, 2), F(1, 3)))


def test_verify_smoothness_join_and_perturbation():
    spec = catalog("c")
    T = reference_frame()
    vt3 = Point2(F(1, 2), F(-2, 3))
    Tt = make_frame(T.v[0], T.v[1], vt3)
    beta = to_bary(T, vt3)
    rng = random.Random(53)
    coeffs = [F(rng.randint(-12, 12), 5) for _ in range(39)]
    ctil, _ = propagate(coeffs, beta, order=2)
    full_t = list(ctil) + [F(0)] * (39 - len(ctil))
    verts = [T.v[0], T.v[1], T.v[2], vt3]
    tri = triangulation(verts, [(0, 1, 2), (0, 1, 3)])
    gs = GlobalSpline(tri, (tuple(coeffs), tuple(full_t)))
    rep = verify_smoothness(gs, (0, 1), 2, samples=9)
    assert all(j == 0 for j in rep["jumps"].values())
    # unit perturbation of the ninth coefficient produces an order-1 jump
    bumped = list(full_t)
    bumped[8] += 1
    gs2 = GlobalSpline(tri, (tuple(coeffs), tuple(bumped)))
    rep2 = verify_smoothness(gs2, (0, 1), 1, samples=9)
    assert rep2["jumps"][0] == 0
    assert rep2["jumps"][1] > F(1, 10)


def test_float_verify_smoothness_passes_against_its_default_tolerance():
    """Without tol, a float join is judged against 1e-10: the exact C^2
    interpolant on a perturbed 2 x 2 grid, in floats, passes on every
    interior edge, and fails there once a near-edge coefficient is bumped."""
    rng = random.Random(67)
    verts = [(F(i), F(j)) for j in range(3) for i in range(3)]
    verts[4] = (F(11, 10), F(4, 5))
    tris = [(0, 1, 4), (0, 4, 3), (1, 2, 4), (2, 5, 4), (3, 4, 6), (4, 7, 6), (4, 5, 8), (4, 8, 7)]
    tri = triangulation(verts, tris)
    jets = {v: tuple(F(rng.randint(-9, 9), 7) for _ in range(10)) for v in range(9)}
    edges = {e: tuple(F(rng.randint(-9, 9), 5) for _ in range(3)) for e in tri.edges()}
    gs = hermite_interpolate(tri, jets, edges)
    float_tri = triangulation([(float(x), float(y)) for x, y in verts], tris)
    float_coeffs = [tuple(map(float, cs)) for cs in gs.coeffs]
    fgs = GlobalSpline(float_tri, tuple(float_coeffs))
    for e in tri.interior_edges():
        assert verify_smoothness(gs, e, 2, samples=5)["max"] == 0
        assert verify_smoothness(fgs, e, 2, samples=5)["pass"], e
    edge = tri.interior_edges()[0]
    t = float_tri.edge_adjacency()[edge][0]
    float_coeffs[t] = (float_coeffs[t][0] + 1e-6,) + float_coeffs[t][1:]
    report = verify_smoothness(GlobalSpline(float_tri, tuple(float_coeffs)), edge, 2, samples=5)
    assert not report["pass"] and report["max"] > 1e-10


def test_global_spline_builds_each_triangle_spline_once():
    """GlobalSpline.spline(t) is built once per triangle and kept on the
    frozen GlobalSpline without entering its equality or hash; join reports
    read through the kept splines equal those of a fresh GlobalSpline, in
    both layers."""
    rng = random.Random(71)
    verts = [(F(i), F(j)) for j in range(3) for i in range(3)]
    verts[4] = (F(11, 10), F(4, 5))
    tris = [(0, 1, 4), (0, 4, 3), (1, 2, 4), (2, 5, 4), (3, 4, 6), (4, 7, 6), (4, 5, 8), (4, 8, 7)]
    tri = triangulation(verts, tris)
    jets = {v: tuple(F(rng.randint(-9, 9), 7) for _ in range(10)) for v in range(9)}
    edges = {e: tuple(F(rng.randint(-9, 9), 5) for _ in range(3)) for e in tri.edges()}
    gs = hermite_interpolate(tri, jets, edges)
    float_tri = triangulation([(float(x), float(y)) for x, y in verts], tris)
    fgs = GlobalSpline(float_tri, tuple(tuple(map(float, cs)) for cs in gs.coeffs))
    for g in (gs, fgs):
        reports = [verify_smoothness(g, e, 2, samples=5) for e in tri.interior_edges()]
        assert all(g.spline(t) is g.spline(t) for t in range(len(tris)))
        fresh = GlobalSpline(g.tri, g.coeffs)
        assert fresh == g and hash(fresh) == hash(g)
        assert reports == [verify_smoothness(fresh, e, 2, samples=5) for e in tri.interior_edges()]
        assert reports == [verify_smoothness(g, e, 2, samples=5) for e in tri.interior_edges()]


def test_verify_smoothness_rejects_vacuous_checks():
    """samples=0 would compare nothing and report a jump of 1 as zero."""
    verts = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(-1))]
    tri = triangulation(verts, [(0, 1, 2), (0, 1, 3)])
    gs = GlobalSpline(tri, ((F(0),) * 39, (F(1),) * 39))
    assert verify_smoothness(gs, (0, 1), 0, samples=1)["jumps"][0] == 1
    for samples, order in ((0, 0), (-1, 1), (3, -1)):
        with pytest.raises(DomainError):
            verify_smoothness(gs, (0, 1), order, samples=samples)


def test_nodal_duality_and_geometry_independence(ref):
    rows = nodal_q_coefficients()
    spec = catalog("c")
    lam = [lambda_vector(el.multiset) for el in spec.elements]
    for i in range(39):
        for j in range(39):
            v = sum(rows[i][k] * lam[k][j] for k in range(39))
            assert v == (1 if i == j else 0)
    # geometry independence: functionals applied on a different frame
    frame = make_frame(Point2(F(-2), F(1)), Point2(F(3), F(0)), Point2(F(1), F(4)))
    nb = nodal_basis(frame)
    lams = build_lambda(frame)
    for i in (0, 7, 31):
        ff = face_forms(nb.splines[i])
        for j in (0, 7, 13, 31, 38):
            assert apply(lams[j], ff) == (1 if i == j else 0)


#: Nodal function of the value functional at v1, in raw basis-c simplex
#: splines (frozen): a change of functional convention or of element order
#: changes this row.
V1_VALUE_NODAL_ROW = {
    "600101": F(1, 4), "500201": F(1, 4), "500102": F(1, 4),
    "410201": F(1, 2), "401102": F(1, 2), "411101": F(1),
    "311201": F(1, 2), "311102": F(1, 2), "320201": F(1, 2),
    "302102": F(1, 2), "211211": F(9, 16), "211112": F(9, 16),
    "220211": F(3, 8), "202112": F(3, 8), "112112": F(3, 16),
    "121211": F(3, 16)}


def test_nodal_v1_value_row_frozen():
    spec = catalog("c")
    want = {knots(lab): c for lab, c in V1_VALUE_NODAL_ROW.items()}
    row = nodal_q_coefficients()[0]
    assert {el.multiset: c for el, c in zip(spec.elements, row) if c} == want


def test_triangulation_validation():
    verts = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]
    for bad in ((0, 1, 1), (0, 1, 2, 2), (0, 1, -1), (0, 1, 3), (0, 1, 2.0)):
        with pytest.raises(NonConformingMesh):
            triangulation(verts, [bad])
    tri = triangulation([(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))],
                        [(0, 1, 2), (1, 3, 2)])
    assert tri.interior_edges() == ((1, 2),)


def test_hermite_zero_data_gives_zero():
    tri = triangulation([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))], [(0, 1, 2)])
    jets = {i: (F(0),) * 10 for i in range(3)}
    edges = {e: (F(0),) * 3 for e in tri.edges()}
    gs = hermite_interpolate(tri, jets, edges)
    assert all(c == 0 for c in gs.coeffs[0])
    with pytest.raises(DimensionMismatch):
        hermite_interpolate(tri, {0: (F(0),) * 10}, edges)


def test_hermite_functional_round_trip():
    """Applying the canonical functionals to the interpolant returns the
    local values derived from the input data."""
    import sympy as sp
    x, y = sp.symbols("x y")
    poly = 2 * x ** 4 * y - x ** 2 + 3 * y ** 3 - sp.Rational(1, 5)
    verts = [Point2(F(0), F(0)), Point2(F(1), F(0)), Point2(F(0), F(1))]
    tri = triangulation(verts, [(0, 1, 2)])

    def ev(expr, px, py):
        r = sp.Rational(expr.subs({x: sp.Rational(px.numerator, px.denominator),
                                   y: sp.Rational(py.numerator, py.denominator)}))
        return F(r.p, r.q)

    jets = {}
    for i, v in enumerate(verts):
        jets[i] = tuple(ev(sp.diff(poly, x, a, y, b), v.x, v.y)
                        for (a, b) in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
                                       (3, 0), (2, 1), (1, 2), (0, 3)))
    edges = {}
    for (a, b) in tri.edges():
        va, vb = verts[a], verts[b]
        ug = (-(vb.y - va.y), vb.x - va.x)
        du = sp.diff(poly, x) * ug[0] + sp.diff(poly, y) * ug[1]
        duu = sp.diff(du, x) * ug[0] + sp.diff(du, y) * ug[1]
        q1 = ((3 * va.x + vb.x) / 4, (3 * va.y + vb.y) / 4)
        m = ((va.x + vb.x) / 2, (va.y + vb.y) / 2)
        q2 = ((va.x + 3 * vb.x) / 4, (va.y + 3 * vb.y) / 4)
        edges[(a, b)] = (ev(duu, *q1), ev(du, *m), ev(duu, *q2))
    gs = hermite_interpolate(tri, jets, edges)
    s = gs.spline(0)
    for p in rational_points(6, seed=54):
        assert eval_spline(s, p) == ev(poly, p.x, p.y)


def test_rational_fan_exact_c2():
    """A five-triangle fan with rational coordinates: zero-data-except-centre
    interpolation is exactly C2 across every interior edge (exact layer),
    and values match the nodal pattern."""
    centre = Point2(F(0), F(0))
    ring = [Point2(F(1), F(0)), Point2(F(1, 2), F(7, 8)), Point2(F(-2, 3), F(3, 4)),
            Point2(F(-1), F(-1, 5)), Point2(F(1, 3), F(-9, 10))]
    verts = [centre] + ring
    tris = [(0, 1 + i, 1 + (i + 1) % 5) for i in range(5)]
    tri = triangulation(verts, tris)
    jets = {i: (F(0),) * 10 for i in range(6)}
    jets[0] = (F(1),) + (F(0),) * 9
    edges = {e: (F(0),) * 3 for e in tri.edges()}
    gs = hermite_interpolate(tri, jets, edges)
    # coefficients that no nonzero value reaches stay in the exact layer too
    assert all(isinstance(c, F) for cs in gs.coeffs for c in cs)
    for t in range(5):
        s = gs.spline(t)
        assert eval_spline(s, centre) == 1
    for e in tri.interior_edges():
        rep = verify_smoothness(gs, e, 2, samples=7)
        assert all(j == 0 for j in rep["jumps"].values()), (e, rep)


def test_hexagon_demo():
    gs = hexagon_demo()
    assert len(gs.tri.triangles) == 6
    # float data give float coefficients, also where no nonzero value reaches
    assert all(isinstance(c, float) for cs in gs.coeffs for c in cs)
    s0 = gs.spline(0)
    assert abs(eval_spline(s0, gs.tri.vertices[0]) - 1.0) < 1e-12
    for i in range(1, 7):
        t = next(t for t, tr in enumerate(gs.tri.triangles) if i in tr)
        assert abs(eval_spline(gs.spline(t), gs.tri.vertices[i])) < 1e-12
    assert len(gs.tri.interior_edges()) == 6
    for e in gs.tri.interior_edges():
        rep = verify_smoothness(gs, e, 2, samples=11, tol=1e-10)
        assert rep["pass"], (e, rep)


def test_propagate_int_coefficients_exact():
    beta = (F(1, 3), F(-1, 2), F(7, 6))
    rng = random.Random(55)
    ints = [rng.randint(-9, 9) for _ in range(39)]
    got, feas = propagate(ints, beta, order=3)
    want, want_feas = propagate([F(c) for c in ints], beta, order=3)
    assert all(isinstance(c, F) for c in got)
    assert got == want and feas == want_feas


def test_hermite_is_exact_only_when_every_vertex_is():
    """Exact jets and edge data on exact triangles give Fractions, unless a
    vertex that no triangle uses has a float coordinate: then floats, as
    for a float vertex of a triangle."""
    jets = {i: (F(i, 3),) * 10 for i in range(5)}
    for last, unused, kind in (((3, 2), (5, 5), F), ((3, 2), (5, 5.0), float),
                               ((3.0, 2), (5, 5), float)):
        tri = triangulation([(0, 0), (2, 0), (0, 2), last, unused], [(0, 1, 2), (1, 3, 2)])
        edges = {e: (F(1), F(-2), F(3, 7)) for e in tri.edges()}
        coeffs = hermite_interpolate(tri, jets, edges).coeffs
        assert {type(c) for cs in coeffs for c in cs} == {kind}


def test_hermite_int_data_is_exact():
    """int vertices, jets and edge data are exact input: every coefficient
    is a Fraction, equal to the result for the same data as Fractions."""
    rng = random.Random(56)
    verts = [(0, 0), (2, 0), (0, 2), (3, 2)]
    tris = [(0, 1, 2), (1, 3, 2)]
    jets = {i: tuple(rng.randint(-5, 5) for _ in range(10)) for i in range(4)}
    tri = triangulation(verts, tris)
    edges = {e: tuple(rng.randint(-5, 5) for _ in range(3)) for e in tri.edges()}
    got = hermite_interpolate(tri, jets, edges)
    assert all(isinstance(c, F) for cs in got.coeffs for c in cs)
    frac = hermite_interpolate(
        triangulation([(F(x), F(y)) for x, y in verts], tris),
        {i: tuple(map(F, v)) for i, v in jets.items()},
        {e: tuple(map(F, v)) for e, v in edges.items()})
    assert got.coeffs == frac.coeffs
    rep = verify_smoothness(got, (1, 2), 2, samples=5)
    assert all(j == 0 for j in rep["jumps"].values())


def _b_spline_rows(degree: int, conditions) -> list:
    """The rows of exact (t, order) conditions on the consecutive B-splines,
    by the oracle's evaluator."""
    return [[bspline_derivative(UnivariateBSplineRef(degree, j), t, order)
             for j in range(1, degree + 4)] for t, order in conditions]


def test_edge_rows_equal_the_b_spline_rows(monkeypatch):
    """The read rows times the inverse of the fixing rows do not depend on
    the basis of the edge's spline space: the closed-form rows on the
    truncated powers equal, by ==, those built on the B-splines."""
    rows = _edge_rows()
    monkeypatch.setattr(assembly, "_univariate_rows", _b_spline_rows)
    assert assembly._edge_rows.__wrapped__() == rows


#: Per degree, the (t, order) conditions that fix an edge spline and those the rows read.
EDGE_CONDITIONS = {
    5: ([(t, o) for t in (0, 1) for o in range(4)], [(F(1, 4), 2), (F(1, 2), 1), (F(3, 4), 2)]),
    4: ([(t, o) for t in (0, 1) for o in range(3)] + [(F(1, 2), 0)], [(F(1, 4), 1), (F(3, 4), 1)]),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((5, 4)), st.data())
def test_edge_rows_map_fixing_values_to_read_values(degree, data):
    """On a random exact combination of the oracle's B-splines, the rows and
    their sparse integer form take the values that fix it to the values
    they read, exactly."""
    coefs = data.draw(st.lists(st.fractions(-50, 50, max_denominator=30),
                               min_size=degree + 3, max_size=degree + 3), label="coefficients")
    fixing, read = ([sum((c * b for c, b in zip(coefs, row)), F(0))
                     for row in _b_spline_rows(degree, conditions)]
                    for conditions in EDGE_CONDITIONS[degree])
    rows, sparse = _edge_rows()[degree == 4]
    assert mat_vec(rows, fixing) == read
    pairs = _apply_rows(*sparse, [(v.numerator, v.denominator) for v in fixing])
    assert [F(*p) for p in pairs] == read


# ---------------------------------------------------------------------------
# Fraction oracles: Hermite assembly and the sampled join check with every
# step in Fraction arithmetic, the face ordinates contracted here
# ---------------------------------------------------------------------------

def _jet_directional(jet, dirs) -> object:
    """Apply directional derivatives, vectors (x, y), to a Cartesian jet in
    JET_ORDERS order, from the full jet for every functional."""
    cur = dict(zip(JET_ORDERS, jet))
    for ux, uy in dirs:
        cur = {(a, b): ux * cur[a + 1, b] + uy * cur[a, b + 1]
               for a, b in cur if (a + 1, b) in cur and (a, b + 1) in cur}
    return cur[0, 0]


def _oracle_hermite(tri, vertex_jets, edge_data):
    """Hermite assembly one functional at a time, each from the full jet
    (_jet_directional) on the frame's Cartesian functionals.  Exact input
    sums over the Fraction entries of nodal_q_coefficients(); any other
    input runs the float layer's sum over _nodal_float(), so each value
    meets its entries as in hermite_interpolate."""
    (f_rows, _), (g_rows, _) = _edge_rows()
    exact = is_exact([x for vals in (*tri.vertices, *vertex_jets.values(), *edge_data.values())
                      for x in vals])
    edge_values = {}
    for (a, b), (d2q1, d1m, d2q2) in edge_data.items():
        va, vb = tri.vertices[a], tri.vertices[b]
        tg = Point2(vb.x - va.x, vb.y - va.y)
        ug = Point2(-tg.y, tg.x)
        f = [_jet_directional(vertex_jets[v], (tg,) * o) for v in (a, b) for o in range(4)]
        g = [_jet_directional(vertex_jets[v], (ug,) + (tg,) * o) for v in (a, b) for o in range(3)]
        f_q1, f_m, f_q2 = mat_vec(f_rows, f)
        g_q1, g_q2 = mat_vec(g_rows, g + [d1m])
        edge_values[a, b] = (tg, ug, (d2q1, g_q1, f_q1), (d1m, f_m), (d2q2, g_q2, f_q2))
    nodal = nodal_q_coefficients()
    weights = [el.weight for el in catalog("c").elements]
    out = []
    for t, idx in enumerate(tri.triangles):
        lams = build_lambda(tri.frame(t))
        by_site = {}
        for name, (a_loc, _, b_loc) in EDGES.items():
            ga, gb = idx[a_loc - 1], idx[b_loc - 1]
            key = tuple(sorted((ga, gb)))
            tg, ug, q_first, (d1m, f_m), q_second = edge_values[key]
            # the local direction over (global normal, tangent)
            (ul,) = next(lam.directions for lam in lams if lam.site == ("e", name, "m"))
            det = ug.x * tg.y - ug.y * tg.x
            s = (ul.x * tg.y - ul.y * tg.x) / det
            w = (ug.x * ul.y - ug.y * ul.x) / det
            near, far = (q_first, q_second) if ga == key[0] else (q_second, q_first)
            by_site["e", name, "q1"] = s * s * near[0] + 2 * s * w * near[1] + w * w * near[2]
            by_site["e", name, "m"] = s * d1m + w * f_m
            by_site["e", name, "q2"] = s * s * far[0] + 2 * s * w * far[1] + w * w * far[2]
        values = [by_site[lam.site] if lam.site[0] == "e" else
                  _jet_directional(vertex_jets[idx[lam.site[1] - 1]], lam.directions)
                  for lam in lams]
        out.append(tuple(sum((v * nodal[i][j] for i, v in enumerate(values)), F(0)) / weights[j]
                         for j in range(39)) if exact else tuple(
            reduce(add, (v * (f if type(v) is float else n)
                         for v, n, f in zip(values, col, fcol) if v and f), 0.0) / w
            for w, col, fcol in assembly._nodal_float()))
    return tuple(out)


def _oracle_jumps(gs, edge, order, samples, ords):
    """The sampled jumps of verify_smoothness; ords caches Fraction face
    ordinates by (coefficients, face)."""
    edge = tuple(sorted(edge))
    adj = gs.tri.edge_adjacency()[edge]
    va, vb = (gs.tri.vertices[i] for i in edge)
    u = Point2(-(vb.y - va.y), vb.x - va.x)

    def value(t, beta, k):
        s = gs.spline(t)
        fi, den, row = functional_row(*_as_bary(beta),
                                      [_as_bary(direction_coords(s.frame, u))] * k)
        if (s.coeffs, fi) not in ords:
            q, table = scaled_basis_tables("c")
            ords[s.coeffs, fi] = [sum((F(x, q) * c for x, c in zip(tj, s.coeffs)), F(0))
                                  for tj in table[fi - 1]]
        return sum((F(r, den) * o for r, o in zip(row, ords[s.coeffs, fi])), F(0))

    jumps = {k: F(0) for k in range(order + 1)}
    for n in range(1, samples + 1):
        betas = []
        for t in adj:
            beta = [F(0)] * 3
            beta[gs.tri.triangles[t].index(edge[0])] = 1 - F(n, samples + 1)
            beta[gs.tri.triangles[t].index(edge[1])] = F(n, samples + 1)
            betas.append(tuple(beta))
        for k in range(order + 1):
            jumps[k] = max(jumps[k], abs(value(adj[0], betas[0], k) - value(adj[1], betas[1], k)))
    return jumps


_small_rational = st.fractions(-3, 3, max_denominator=9)


@st.composite
def _rational_grid(draw, fixed_boundary=False):
    """A 1 x 1 or 2 x 2 grid of split squares, every vertex moved by a
    rational offset of at most 1/5, with rational jets and edge data.  With
    fixed_boundary, the boundary vertices stay, so the boundary edges are
    axis-parallel."""
    n = draw(st.sampled_from((1, 2)))
    offset = st.fractions(F(-1, 5), F(1, 5), max_denominator=12)
    verts = [(i, j) if fixed_boundary and not (0 < i < n and 0 < j < n) else
             (i + draw(offset), j + draw(offset)) for j in range(n + 1) for i in range(n + 1)]
    tris = []
    for j in range(n):
        for i in range(n):
            a = j * (n + 1) + i
            b, c, d = a + 1, a + n + 1, a + n + 2
            tris += [(a, b, d), (a, d, c)] if draw(st.booleans()) else [(a, b, c), (b, d, c)]
    tri = triangulation(verts, tris)
    jets = {v: tuple(draw(_small_rational) for _ in range(10)) for v in range(len(verts))}
    edges = {e: tuple(draw(_small_rational) for _ in range(3)) for e in tri.edges()}
    return tri, jets, edges


@settings(max_examples=12, deadline=None)
@given(mesh=_rational_grid(), slot=st.integers(0, 38), bump=_small_rational.filter(bool),
       order=st.integers(0, 3), samples=st.integers(1, 4))
def test_integer_assembly_matches_fraction_oracle(mesh, slot, bump, order, samples):
    """Exact hermite_interpolate gives the Fraction oracle's coefficients,
    and verify_smoothness its jumps, on the assembled spline and on one with
    a perturbed coefficient in the last triangle."""
    tri, jets, edges = mesh
    gs = hermite_interpolate(tri, jets, edges)
    assert gs.coeffs == _oracle_hermite(tri, jets, edges)
    assert all(type(c) is F for cs in gs.coeffs for c in cs)
    coeffs = [list(cs) for cs in gs.coeffs]
    coeffs[-1][slot] += bump
    bumped = GlobalSpline(tri, tuple(map(tuple, coeffs)))
    last = set(tri.triangles[-1])
    ords = {}
    for g in (gs, bumped):
        for e in tri.interior_edges():
            if set(e) <= last:
                assert verify_smoothness(g, e, order, samples)["jumps"] == \
                    _oracle_jumps(g, e, order, samples, ords)


_FLOAT_KINDS = st.sampled_from(["all float", "one float vertex", "float jets", "float edge data"])


def _floated(mesh, kind):
    """The mesh with its vertices, jets or edge data (per kind) as floats."""
    tri, jets, edges = mesh
    verts = list(tri.vertices)
    if kind == "all float":
        verts = [tuple(map(float, v)) for v in verts]
    if kind in ("all float", "float jets"):
        jets = {v: tuple(map(float, jet)) for v, jet in jets.items()}
    if kind in ("all float", "float edge data"):
        edges = {e: tuple(map(float, d)) for e, d in edges.items()}
    if kind == "one float vertex":
        verts[0] = tuple(map(float, verts[0]))
    return triangulation(verts, tri.triangles), jets, edges


@settings(max_examples=12, deadline=None)
@given(mesh=_rational_grid(), kind=_FLOAT_KINDS)
def test_float_assembly_matches_fraction_entry_oracle(mesh, kind):
    """Float hermite_interpolate has the bits of its sums over the Fraction
    entries of nodal_q_coefficients() divided by the Fraction weights: the
    oracle runs the same assembly with those in place of the float entries.
    Float values meet the entries, and on mixed input exact ones too (the
    jets of a triangle with exact corners, next to one float vertex)."""
    tri, jets, edges = _floated(mesh, kind)
    got = hermite_interpolate(tri, jets, edges)
    entries = tuple((el.weight, col, col)
                    for el, col in zip(catalog("c").elements, zip(*nodal_q_coefficients())))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assembly, "_nodal_float", lambda: entries)
        want = hermite_interpolate(tri, jets, edges)
    assert all(type(c) is float for cs in got.coeffs for c in cs)
    assert [[c.hex() for c in cs] for cs in got.coeffs] == \
        [[c.hex() for c in cs] for cs in want.coeffs]


@settings(max_examples=15, deadline=None)
@given(mesh=st.one_of(_rational_grid(fixed_boundary=True), _rational_grid()), kind=_FLOAT_KINDS)
def test_float_assembly_has_the_per_functional_oracle_bits(mesh, kind):
    """Float and mixed hermite_interpolate, which contracts each jet once per
    prefix of directions, has the bits of the oracle that contracts the full
    jet for every functional.  On a fixed boundary the float tangent of an
    axis-parallel edge has a zero component, so its normal has a -0.0."""
    tri, jets, edges = _floated(mesh, kind)
    got = hermite_interpolate(tri, jets, edges)
    assert all(type(c) is float for cs in got.coeffs for c in cs)
    assert [[c.hex() for c in cs] for cs in got.coeffs] == \
        [[c.hex() for c in cs] for cs in _oracle_hermite(tri, jets, edges)]


def test_exact_assembly_with_large_denominators_matches_the_oracle():
    """Jets and edge data over denominators of about 10^30 on a perturbed
    2 x 2 grid: the per-triangle lcm of the integer values stays exact."""
    rng = random.Random(58)
    big = lambda: F(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 30))
    verts = [(F(i), F(j)) for j in range(3) for i in range(3)]
    verts[4] = (F(11, 10), F(4, 5))
    tri = triangulation(verts, [(0, 1, 4), (0, 4, 3), (1, 2, 4), (2, 5, 4),
                                (3, 4, 6), (4, 7, 6), (4, 5, 8), (4, 8, 7)])
    jets = {v: tuple(big() for _ in range(10)) for v in range(9)}
    edges = {e: tuple(big() for _ in range(3)) for e in tri.edges()}
    assert max(x.denominator for jet in jets.values() for x in jet) > 10 ** 29
    gs = hermite_interpolate(tri, jets, edges)
    assert gs.coeffs == _oracle_hermite(tri, jets, edges)
    assert all(type(c) is F for cs in gs.coeffs for c in cs)


def test_sparse_nodal_rows_are_the_nodal_matrix():
    """_nodal_integer() keeps the nonzero entries of diag(1 / w) N^T as
    (column, integer) pairs per row over one denominator: 276 of the 1521."""
    d, rows = assembly._nodal_integer()
    nodal, elements = nodal_q_coefficients(), catalog("c").elements
    assert all(len(pair) == 2 and type(pair[1]) is int for row in rows for pair in row)
    assert sum(map(len, rows)) == 276
    for j, (row, el) in enumerate(zip(rows, elements)):
        dense = dict(row)
        assert all(x != 0 for x in dense.values())
        assert [F(dense.get(i, 0), d) for i in range(39)] == [nodal[i][j] / el.weight for i in range(39)]


@pytest.mark.parametrize("bad", ["mixed keys", "jet not a sequence", "edge key not a pair",
                                 "missing edge", "short jet"])
def test_hermite_rejects_malformed_data_with_dimension_mismatch(bad):
    tri = triangulation([(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))],
                        [(0, 1, 2), (1, 3, 2)])
    jets = {i: (F(i),) * 10 for i in range(4)}
    edges = {e: (F(1), F(2), F(3)) for e in tri.edges()}
    if bad == "mixed keys":
        jets["a"] = jets.pop(3)
    elif bad == "jet not a sequence":
        jets[0] = 5
    elif bad == "edge key not a pair":
        edges[5] = edges.pop((0, 1))
    elif bad == "missing edge":
        del edges[1, 2]
    else:
        jets[2] = jets[2][:9]
    with pytest.raises(DimensionMismatch):
        hermite_interpolate(tri, jets, edges)


@pytest.mark.parametrize("value", ["x", 1j, float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("where", ["jet", "edge data", "unused vertex"])
def test_hermite_rejects_values_that_are_not_finite_reals(value, where):
    """A str or complex value, NaN or inf raises DomainError instead of a
    bare TypeError or NaN, complex or inf coefficients, also as a
    coordinate of a vertex that no triangle uses (make_frame checks the
    others)."""
    verts = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]
    tri = triangulation(verts + [(F(2), value)] * (where == "unused vertex"), [(0, 1, 2)])
    jets = {i: (F(i),) * 10 for i in range(len(tri.vertices))}
    edges = {e: (F(1), F(2), F(3)) for e in tri.edges()}
    if where == "jet":
        jets[1] = (F(0),) * 9 + (value,)
    else:
        edges[0, 2] = (F(0), value, F(0))
    with pytest.raises(DomainError):
        hermite_interpolate(tri, jets, edges)


@pytest.mark.parametrize("order, samples", [(2.0, 5), (2, 2.5), (True, 5), (2, True), ("2", 5)])
def test_verify_smoothness_needs_int_order_and_samples(order, samples):
    tri = triangulation([(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(-1))],
                        [(0, 1, 2), (0, 1, 3)])
    gs = GlobalSpline(tri, ((F(0),) * 39, (F(1),) * 39))
    with pytest.raises(DomainError):
        verify_smoothness(gs, (0, 1), order, samples=samples)


def test_edge_adjacency_is_built_once(monkeypatch):
    """A triangulation builds its edge -> triangles map once, with tuples as
    values: its own checks, edges, interior_edges, edge_adjacency (a copy)
    and every verify_smoothness read that one map."""
    builds, build = [], Triangulation._adjacency.func
    counted = cached_property(lambda self: builds.append(self) or build(self))
    counted.__set_name__(Triangulation, "_adjacency")
    monkeypatch.setattr(Triangulation, "_adjacency", counted)
    verts = [(F(i), F(j)) for j in range(3) for i in range(3)]
    tri = triangulation(verts, [(0, 1, 4), (0, 4, 3), (1, 2, 4), (2, 5, 4),
                                (3, 4, 6), (4, 7, 6), (4, 5, 8), (4, 8, 7)])
    gs = hermite_interpolate(tri, {v: (F(v),) * 10 for v in range(9)},
                             {e: (F(1), F(2), F(3)) for e in tri.edges()})
    for e in tri.interior_edges():
        verify_smoothness(gs, e, 1, samples=2)
    adj = tri.edge_adjacency()
    assert tri.edges() == tuple(sorted(adj)) and len(adj) == 16
    assert all(type(ts) is tuple for ts in adj.values())
    adj.clear()
    assert len(tri.edge_adjacency()) == 16
    assert len(builds) == 1


def test_float_hermite_splines_are_built_once(monkeypatch):
    """Float Hermite hands the global spline its triangles' splines: no Spline check runs
    again when they are read, and the result equals the GlobalSpline of its coefficients, with
    its hash and bytes, and the same splines."""
    rng = random.Random(58)
    verts = [(0.0, 0.0), (2.0, 0.1), (0.1, 2.0), (2.0, 2.0), (1.0, 1.5)]
    tri = triangulation(verts, [(0, 1, 4), (1, 3, 4), (3, 2, 4), (2, 0, 4)])
    jets = {i: tuple(rng.uniform(-1, 1) for _ in range(10)) for i in range(5)}
    edges = {e: tuple(rng.uniform(-1, 1) for _ in range(3)) for e in tri.edges()}
    checks = []
    post_init = assembly.Spline.__post_init__
    monkeypatch.setattr(assembly.Spline, "__post_init__", lambda s: checks.append(s) or post_init(s))
    gs = hermite_interpolate(tri, jets, edges)
    splines = [gs.spline(t) for t in range(4)]
    assert checks == [] and all(type(c) is float for cs in gs.coeffs for c in cs)
    again = GlobalSpline(tri, gs.coeffs)
    assert gs == again and hash(gs) == hash(again)
    assert dumps(global_spline_to_dict(gs)) == dumps(global_spline_to_dict(again))
    assert splines == [again.spline(t) for t in range(4)] and len(checks) == 4


def test_mixed_layer_mesh_gives_float_coefficients():
    """One float vertex puts the whole assembly in the float layer, also the
    triangles whose own corners and data are exact."""
    rng = random.Random(57)
    verts = [(F(0), F(0)), (2.0, 0.0), (F(0), F(2)), (F(2), F(2)), (F(1), F(3, 2))]
    tri = triangulation(verts, [(0, 1, 4), (1, 3, 4), (3, 2, 4), (2, 0, 4)])
    jets = {i: tuple(F(rng.randint(-9, 9), 7) for _ in range(10)) for i in range(5)}
    edges = {e: tuple(F(rng.randint(-9, 9), 5) for _ in range(3)) for e in tri.edges()}
    gs = hermite_interpolate(tri, jets, edges)
    assert all(type(c) is float for cs in gs.coeffs for c in cs)


# ---------------------------------------------------------------------------
# The join check's coefficient gaps: what they prove and how they relate to
# the sampled jumps
# ---------------------------------------------------------------------------

@settings(max_examples=12, deadline=None)
@given(mesh=_rational_grid(), slot=st.integers(0, 38), bump=_small_rational.filter(bool),
       order=st.integers(0, 5), samples=st.integers(1, 6))
def test_gaps_bound_the_sampled_jumps(mesh, slot, bump, order, samples):
    """gaps[k] bounds the order-k jump on the whole edge, so every sampled
    jump too.  The midpoint is the exception for k = 4, 5, where each side
    takes its one-sided value on the face it locates, so the bound is
    asserted there only when the midpoint is not sampled (even samples)."""
    tri, jets, edges = mesh
    gs = hermite_interpolate(tri, jets, edges)
    coeffs = [list(cs) for cs in gs.coeffs]
    coeffs[-1][slot] += bump
    for g in (gs, GlobalSpline(tri, tuple(map(tuple, coeffs)))):
        for e in tri.interior_edges():
            rep = verify_smoothness(g, e, order, samples)
            assert sorted(rep["gaps"]) == list(range(order + 1))
            for k in range(order + 1):
                assert type(rep["gaps"][k]) is F
                if k <= 3 or samples % 2 == 0:
                    assert rep["jumps"][k] <= rep["gaps"][k], (e, k)
            # Hermite assembly is C^2 across every edge, and the gaps prove it
            if g is gs:
                assert all(rep["gaps"][k] == 0 for k in range(min(order, 2) + 1))


def _fraction_cross_edge_coefficients(s, la, lb, order):
    """_cross_edge_coefficients by Fractions: direction_coords of u as Fractions over their
    lcm (face_bary), float ordinates through Fraction and common_denominator, each order's
    halves put over the lcm of their dens, and the half that holds the midpoint located at
    every call."""
    _, halves = assembly._half_edges(la, lb)
    a, b = s.frame.corners[la - 1], s.frame.corners[lb - 1]
    delta = tuple(map(F, direction_coords(s.frame, Point2(-(b.y - a.y), b.x - a.x))))
    out = [[] for _ in range(order + 1)]
    for fi, p, near in halves:
        dden, g = face_bary(fi, delta)
        g0, g1, g2 = (g[i] for i in p)
        den, ords = (s._exact_ordinates(fi) if s.exact else
                     common_denominator(list(map(F, s._float_forms.ords[fi - 1]))))
        for k in range(order + 1):
            weights = [((i, j, l), w * g0 ** i * g1 ** j * g2 ** l) for w, i, j, l in _row_terms(k)]
            out[k].append((cross_derivative(ords, near, weights, k), den * dden ** k))
    for k, ((n0, d0), (n1, d1)) in enumerate(out):
        D = lcm(d0, d1)
        out[k] = D, ([x * (D // d0) for x in n0], [x * (D // d1) for x in n1])
    m = next(m for x, m, y in EDGES.values() if {x, y} == {la, lb})
    return out, [fi for fi, _, _ in halves].index(locate_face_bary(*VERTEX_BARY[m - 1]))


@st.composite
def _oriented_grid(draw):
    """_rational_grid with each triangle's corners reversed at random, so that clockwise and
    counterclockwise frames meet, as exact data, float data or float vertices."""
    tri, jets, edges = draw(_rational_grid())
    tris = [(a, c, b) if draw(st.booleans()) else (a, b, c) for a, b, c in tri.triangles]
    verts, kind = tri.vertices, draw(st.sampled_from(["exact", "float data", "float vertices"]))
    if kind == "float data":
        jets = {v: tuple(map(float, jet)) for v, jet in jets.items()}
        edges = {e: tuple(map(float, d)) for e, d in edges.items()}
    if kind == "float vertices":
        verts = [tuple(map(float, v)) for v in verts]
    return triangulation(verts, tris), jets, edges, kind


@settings(max_examples=20, deadline=None)
@given(mesh=_oriented_grid(), order=st.integers(0, 5), samples=st.integers(1, 4))
def test_join_check_on_both_orientations_matches_the_fraction_route(mesh, order, samples):
    """On clockwise and counterclockwise frames, exact and float, the integer join check gives
    the gaps and jumps of the Fraction route (_fraction_cross_edge_coefficients): the same
    Fractions, the same float bits, to order 5 with the midpoint sampled and at a drawn order.
    Exact Hermite coefficients stay integers through the check and evaluation, and the
    result equals the GlobalSpline of its coefficients, with its hash, repr and bytes."""
    tri, jets, edges, kind = mesh
    gs = hermite_interpolate(tri, jets, edges)

    def bits(report):
        return {key: {k: (type(x), x.hex() if type(x) is float else x) for k, x in v.items()}
                for key, v in report.items() if key in ("gaps", "jumps")}
    checks = [(e, o, n) for e in tri.interior_edges() for o, n in ((5, 1), (order, samples))]
    got = [bits(verify_smoothness(gs, *c)) for c in checks]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assembly, "_cross_edge_coefficients", _fraction_cross_edge_coefficients)
        assert got == [bits(verify_smoothness(gs, *c)) for c in checks]
    centre = (F(1, 3), F(1, 3), F(1, 3))
    values = [eval_spline(gs.spline(t), from_bary(tri.frame(t), centre))
              for t in range(len(tri.triangles))]
    if kind == "exact":
        assert "coeffs" not in vars(gs)
        assert not any("coeffs" in vars(gs.spline(t)) for t in range(len(tri.triangles)))
    again = GlobalSpline(tri, gs.coeffs)
    assert gs == again and hash(gs) == hash(again) and repr(gs) == repr(again)
    assert dumps(global_spline_to_dict(gs)) == dumps(global_spline_to_dict(again))
    assert values == [eval_spline(again.spline(t), from_bary(tri.frame(t), centre))
                      for t in range(len(tri.triangles))]


@settings(max_examples=20, deadline=None)
@given(mesh=_oriented_grid(), slot=st.integers(0, 38), bump=_small_rational.filter(bool),
       order=st.integers(0, 5), samples=st.integers(1, 25))
def test_gaps_are_the_same_for_every_sample_count(mesh, slot, bump, order, samples):
    """The gaps are read off the coefficients alone: on clockwise and counterclockwise frames,
    exact and float, with one coefficient of the last triangle bumped, every samples in 1..25
    gives the Fractions and the float bits of samples=1, which ps12 assemble passes."""
    tri, jets, edges, kind = mesh
    gs = hermite_interpolate(tri, jets, edges)
    coeffs = [list(cs) for cs in gs.coeffs]
    coeffs[-1][slot] += bump if kind == "exact" else float(bump)

    def gaps(g, n):
        return [{k: (type(x), x.hex() if type(x) is float else x)
                 for k, x in verify_smoothness(g, e, order, n)["gaps"].items()}
                for e in tri.interior_edges()]
    for g in (gs, GlobalSpline(tri, tuple(map(tuple, coeffs)))):
        assert gaps(g, samples) == gaps(g, 1)


def _report_bits(report):
    """Every field of a join-check report, each number as its type and value, floats as hex."""
    def bits(x):
        return type(x), x.hex() if type(x) is float else x
    return {key: {k: bits(x) for k, x in v.items()} if isinstance(v, dict) else bits(v)
            for key, v in report.items()}


@settings(max_examples=30, deadline=None)
@given(mesh=_oriented_grid(), bumps=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 38),
                                                       _small_rational.filter(bool), st.booleans()),
                                             max_size=3),
       order=st.integers(0, 5), samples=st.integers(1, 25),
       tol=st.sampled_from([None, 1e-10, F(1, 3), 2]))
def test_join_check_report_matches_the_weight_sum_oracle(mesh, bumps, order, samples, tol):
    """Near-edge rows, differencing and one division per value give the report of the weight-sum
    route (join_check_oracle): gaps, jumps, max and pass, the same Fractions and the same float
    bits, on clockwise and counterclockwise frames, exact data, float data and float vertices, at
    every order and at odd and even sample counts (so with and without the midpoint).  The
    Hermite spline is checked as built, and with some coefficients bumped, by exact or float
    amounts, so that every gap can be nonzero and one side of a join may be exact, the other
    float."""
    tri, jets, edges, kind = mesh
    gs = hermite_interpolate(tri, jets, edges)
    coeffs = [list(cs) for cs in gs.coeffs]
    for t, slot, bump, as_float in bumps:
        t %= len(coeffs)
        coeffs[t][slot] += float(bump) if as_float or kind != "exact" else bump
    for g in (gs, GlobalSpline(tri, tuple(map(tuple, coeffs)))):
        for e in tri.interior_edges():
            got = verify_smoothness(g, e, order, samples, tol)
            assert _report_bits(got) == _report_bits(join_check_oracle.verify_smoothness(
                g, e, order, samples, tol)), (kind, e)


def test_exact_gaps_beyond_the_float_range_are_compared_with_tol_exactly():
    """Data scaled by 10^400 scale every gap and jump by 10^400 exactly, beyond the float range:
    pass is False at the float tol 1e-10 and True at the int tol 10^500, with no OverflowError."""
    rng = random.Random(400)
    verts = [(i + F(rng.randint(-9, 9), 50), j + F(rng.randint(-9, 9), 50))
             for j in range(2) for i in range(2)]
    tri = triangulation(verts, [(0, 1, 3), (0, 3, 2)])
    jets = {v: tuple(F(rng.randint(-9, 9), 7) for _ in range(10)) for v in range(4)}
    edges = {e: tuple(F(rng.randint(-9, 9), 5) for _ in range(3)) for e in tri.edges()}
    big = hermite_interpolate(tri, {v: tuple(10 ** 400 * x for x in j) for v, j in jets.items()},
                              {e: tuple(10 ** 400 * x for x in d) for e, d in edges.items()})
    small = hermite_interpolate(tri, jets, edges)
    e, = tri.interior_edges()
    rep = verify_smoothness(big, e, 5, 4, tol=1e-10)
    want = verify_smoothness(small, e, 5, 4)
    for key in ("gaps", "jumps"):
        assert rep[key] == {k: 10 ** 400 * x for k, x in want[key].items()}
    assert rep["gaps"][3] > 10 ** 300 and rep["pass"] is False
    assert verify_smoothness(big, e, 5, 4, tol=10 ** 500)["pass"] is True


def test_float_gaps_beyond_the_float_range_are_inf(monkeypatch):
    """Float coefficients of +-1.3e303 have finite ordinates, but their order-4 and order-5
    gaps and jumps are beyond the float range: the report holds inf there, the nearest float,
    and fails pass, where int division raised OverflowError; the finite values are the
    weight-sum oracle's."""
    rng = random.Random(1)
    tri = triangulation([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.1)], [(0, 1, 3), (0, 3, 2)])
    gs = GlobalSpline(tri, tuple(tuple(rng.choice([-1.3e303, 1.3e303]) for _ in range(39))
                                 for _ in range(2)))
    rep = verify_smoothness(gs, (0, 3), 5, 1, tol=1e-10)
    assert rep["gaps"][4] == rep["gaps"][5] == rep["max"] == float("inf") and not rep["pass"]
    with pytest.raises(OverflowError):
        join_check_oracle.verify_smoothness(gs, (0, 3), 5, 1, tol=1e-10)
    monkeypatch.setattr(join_check_oracle, "truediv", assembly._nearest_float)
    assert _report_bits(rep) == _report_bits(join_check_oracle.verify_smoothness(gs, (0, 3), 5, 1,
                                                                                 tol=1e-10))


def _c3_feasible_patch(seed):
    """Random basis-c coefficients on the reference frame made order-3
    compatible toward vt3 (as in criterion 8), and the neighbour's frame."""
    T = reference_frame()
    vt3 = Point2(F(2, 3), F(-4, 5))
    beta = to_bary(T, vt3)
    rng = random.Random(seed)
    coeffs = [F(rng.randint(-15, 15), 4) for _ in range(39)]
    cons = dict(smoothness_system(3, beta).constraint)
    coeffs[11] -= c3_residual(coeffs, beta) / cons[11]
    tri = triangulation([T.v[0], T.v[1], T.v[2], vt3], [(0, 1, 2), (0, 1, 3)])
    return tri, beta, coeffs


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_propagated_neighbour_has_zero_gaps_up_to_its_order(order):
    """The paper's relations (propagate) and the coefficient gaps agree: a
    neighbour built at order k joins with gaps 0 through order k, and one
    bumped near-edge coefficient makes a gap of order <= k nonzero."""
    tri, beta, coeffs = _c3_feasible_patch(81 + order)
    ctil, feasible = propagate(coeffs, beta, order=order)
    assert feasible
    full_t = list(ctil) + [F(0)] * (39 - len(ctil))
    rep = verify_smoothness(GlobalSpline(tri, (tuple(coeffs), tuple(full_t))), (0, 1), 5)
    assert all(rep["gaps"][k] == 0 for k in range(order + 1))
    assert rep["gaps"][order + 1] != 0
    bumped = list(full_t)
    bumped[N_BLOCKS[order] - 1] += 1
    rep = verify_smoothness(GlobalSpline(tri, (tuple(coeffs), tuple(bumped))), (0, 1), order)
    assert any(rep["gaps"][k] != 0 for k in range(order + 1))


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_join_that_vanishes_at_the_samples_is_caught_by_the_gaps(order):
    """Across y = 0, Q + y^k w(x) against Q, with w of degree 5 - k vanishing
    at the 5 - k sample points: the join is C^(k-1), not C^k, yet every
    sampled jump is 0.  Only the gaps see it: gaps[k] != 0."""
    samples = 5 - order
    rng = random.Random(17 + order)
    coef = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(21)]

    def quintic(p):
        return sum(c * p.x ** i * p.y ** j for c, (i, j) in
                   zip(coef, [(i, j) for i in range(6) for j in range(6 - i)]))

    def wrong(p):
        w = 1
        for i in range(1, samples + 1):
            w *= p.x - F(i, samples + 1)
        return quintic(p) + p.y ** order * w

    verts = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1, 2), F(-2, 3))]
    tri = triangulation(verts, [(0, 1, 2), (0, 1, 3)])
    spec = catalog("c")
    coeffs = []
    for t, f in ((0, quintic), (1, wrong)):
        frame = tri.frame(t)
        coeffs.append(lagrange_interpolate(
            "c", frame, [f(from_bary(frame, el.domain_point)) for el in spec.elements]).coeffs)
    rep = verify_smoothness(GlobalSpline(tri, tuple(coeffs)), (0, 1), order, samples)
    assert all(j == 0 for j in rep["jumps"].values())
    assert all(rep["gaps"][k] == 0 for k in range(order))
    assert rep["gaps"][order] != 0


@pytest.mark.parametrize("basis", "abcdef")
def test_gaps_prove_the_join_of_one_quintic_in_every_basis(basis):
    """Two triangles each interpolating one global quintic join with gaps 0
    at orders 0..5.  Adding 1 to coefficient i of the second makes a gap
    exactly when S_i is nonzero on a face at the shared edge (D1 or D2 for
    the edge [v1, v2]): a nonzero quintic piece has a nonzero cross
    derivative of some order 0..5 on any line."""
    rng = random.Random(ord(basis))
    coef = {(i, j): F(rng.randint(-9, 9), rng.randint(1, 5)) for i in range(6) for j in range(6 - i)}

    def quintic(p):
        return sum(c * p.x ** i * p.y ** j for (i, j), c in coef.items())

    verts = [(F(1, 5), F(-1, 7)), (F(3, 2), F(1, 3)), (F(-1, 4), F(6, 5)), (F(6, 5), F(-3, 2))]
    tri = triangulation(verts, [(2, 1, 0), (0, 1, 3)])
    spec = catalog(basis)
    coeffs = []
    for t in (0, 1):
        frame = tri.frame(t)
        coeffs.append(lagrange_interpolate(
            basis, frame, [quintic(from_bary(frame, el.domain_point)) for el in spec.elements]).coeffs)
    rep = verify_smoothness(GlobalSpline(tri, tuple(coeffs), basis), (0, 1), 5, samples=3)
    assert rep["gaps"] == {k: 0 for k in range(6)}
    assert rep["max"] == 0
    _, table = scaled_basis_tables(basis)
    for i in range(39):
        bumped = list(coeffs[1])
        bumped[i] += 1
        gaps = verify_smoothness(GlobalSpline(tri, (coeffs[0], tuple(bumped)), basis),
                                 (0, 1), 5, samples=1)["gaps"]
        touches = any(row[i] for face in table[:2] for row in face)
        assert any(gaps.values()) == touches, i


def test_orders_4_and_5_follow_the_midpoint_convention():
    """f = (2x + y - 1)_+^4 is C^3 across the line 2x + y = 1, a median of
    both triangles, so each interpolates it exactly and the join has gaps 0
    at every order.  Along the edge its order-4 cross derivative steps from
    0 to 24 at the midpoint, and there the two triangles locate different
    halves (corner order (0, 1, 2) against (1, 0, 3)): the sampled one-sided
    jump is 24 > gaps[4] = 0, and ``pass``, which reads the gaps, holds even
    at tol 0.  Orders 4 and 5 equal the Fraction oracle, on this join and on
    random coefficients, with and without the midpoint."""
    def f(p):
        return max(2 * p.x + p.y - 1, F(0)) ** 4

    verts = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(-1))]
    tri = triangulation(verts, [(0, 1, 2), (1, 0, 3)])
    spec = catalog("c")
    coeffs = []
    for t in (0, 1):
        frame = tri.frame(t)
        coeffs.append(lagrange_interpolate(
            "c", frame, [f(from_bary(frame, el.domain_point)) for el in spec.elements]).coeffs)
    gs = GlobalSpline(tri, tuple(coeffs))
    rep = verify_smoothness(gs, (0, 1), 5, samples=1)
    assert rep["gaps"] == {k: 0 for k in range(6)}
    assert rep["jumps"] == {0: 0, 1: 0, 2: 0, 3: 0, 4: 24, 5: 0}
    assert verify_smoothness(gs, (0, 1), 5, samples=1, tol=0)["pass"]
    assert verify_smoothness(gs, (0, 1), 5, samples=2)["max"] == 0
    rng = random.Random(29)
    noisy = GlobalSpline(tri, tuple(tuple(F(rng.randint(-20, 20), rng.randint(1, 6))
                                          for _ in range(39)) for _ in range(2)))
    ords = {}
    for g in (gs, noisy):
        for order in (4, 5):
            for samples in (1, 2, 3, 5):
                assert verify_smoothness(g, (0, 1), order, samples)["jumps"] == \
                    _oracle_jumps(g, (0, 1), order, samples, ords), (order, samples)


# ---------------------------------------------------------------------------
# One owner for a triangle's coordinates: the frames of a triangulation
# ---------------------------------------------------------------------------

def _perturbed_grid(rng, n):
    """An n x n grid of split squares, its inner vertices moved by seeded
    rational offsets of at most 1/5, with rational jets and edge data."""
    verts = [(F(i) + F(rng.randint(-2, 2), 10) * (0 < i < n and 0 < j < n),
              F(j) + F(rng.randint(-2, 2), 10) * (0 < i < n and 0 < j < n))
             for j in range(n + 1) for i in range(n + 1)]
    tris = []
    for j in range(n):
        for i in range(n):
            a = j * (n + 1) + i
            b, c, d = a + 1, a + n + 1, a + n + 2
            tris += [(a, b, d), (a, d, c)] if rng.random() < 0.5 else [(a, b, c), (b, d, c)]
    jets = {v: tuple(F(rng.randint(-99, 99), rng.randint(1, 30)) for _ in range(10))
            for v in range(len(verts))}
    edges = {tuple(sorted(e)): tuple(F(rng.randint(-99, 99), rng.randint(1, 30)) for _ in range(3))
             for t in tris for e in ((t[0], t[1]), (t[1], t[2]), (t[0], t[2]))}
    return verts, tris, jets, edges


def test_each_triangle_frame_is_made_once(monkeypatch):
    """make_frame runs once per triangle, when the triangulation is checked:
    Hermite assembly and the join check of every interior edge read the
    kept frames, and frame(t) returns the one it checked."""
    calls, make = [], assembly.make_frame
    monkeypatch.setattr(assembly, "make_frame", lambda *c: calls.append(c) or make(*c))
    verts, tris, jets, edges = _perturbed_grid(random.Random(4), 4)
    tri = triangulation(verts, tris)
    gs = hermite_interpolate(tri, jets, edges)
    for e in tri.interior_edges():
        verify_smoothness(gs, e, 2, samples=1)
    assert len(tris) == 32 and len(calls) == 32
    assert all(gs.spline(t).frame is tri.frame(t) for t in range(len(tris)))


def test_exact_assembly_reads_int_and_fraction_vertices_alike():
    """A mesh given with int vertices assembles to the coefficients of the
    same mesh given with Fraction vertices."""
    rng = random.Random(35)
    verts = [(i, j) for j in range(3) for i in range(3)]
    tris = [(0, 1, 4), (0, 4, 3), (1, 2, 4), (2, 5, 4), (3, 4, 6), (4, 7, 6), (4, 5, 8), (4, 8, 7)]
    ints, fracs = triangulation(verts, tris), triangulation([(F(x), F(y)) for x, y in verts], tris)
    jets = {v: tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(10)) for v in range(9)}
    edges = {e: tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)) for e in ints.edges()}
    got = hermite_interpolate(ints, jets, edges)
    assert all(type(x) is int for v in ints.vertices for x in v)
    assert got.coeffs == hermite_interpolate(fracs, jets, edges).coeffs
    assert all(type(c) is F for cs in got.coeffs for c in cs)


#: float.hex of each coefficient of float Hermite on two triangles with
#: int corners, one beyond 2**53, and a corner of an int and a float.
MIXED_FLOAT_HEX = (
    "0x0.0p+0 0x1.d41d41d41d41dp+46 0x1.5f15f15f15f1ap+98 0x1.d41d41d41d424p+150 "
    "-0x1.111111111110cp+151 0x1.d41d41d41d416p+98 -0x1.d41d41d41d418p+47 0x1.2492492492492p-3 "
    "0x1.5f15f15f15f15p-4 0x1.3333333333334p+48 0x1.94b94b94b94bdp+100 0x1.041041041041cp+149 "
    "-0x1.111111111110ap+151 0x1.d41d41d41d413p+98 -0x1.d41d41d41d415p+47 0x1.12be2be2be2bep-2 "
    "0x1.1ad1ad1ad1ad4p+50 0x1.381381381381bp+150 0x1.0410410410415p+149 "
    "-0x1.1111111111109p+151 0x1.d41d41d41d410p+98 0x1.08f8af8af8af8p+0 "
    "-0x1.bc0ca0d3cae0bp+100 0x1.d41d41d41d433p+149 -0x1.1111111111107p+151 "
    "-0x1.8ef70117cadd0p+48 0x1.1501e719e0b88p+99 0x1.a01a01a01a017p+150 "
    "0x1.d41d41d41d429p+149 -0x1.a5ca5ca5ca5e0p-7 0x1.2492492492490p+45 -0x1.38138138137c0p+94 "
    "0x1.d41d41d41d428p+45 0x1.3813813813813p+151 0x1.c1d41d41d41d0p-5 0x1.2492492492494p+99 "
    "0x1.9999999999998p-4 0x1.5f15f15f15f19p+48 0x1.2492492492492p-2",
    "0x1.2492492492492p-3 0x1.6db6db6db6db7p-2 0x1.adb6db6db6db6p-1 0x1.8aaaaaaaaaaabp+1 "
    "-0x1.b6db6db6db6f0p-4 0x1.2492492492488p-4 0x1.249249249248cp-4 0x1.b6db6db6db6dbp-2 "
    "-0x1.d41d41d41d415p+47 -0x1.2be2be2be2bdep+49 -0x1.2f8af8af8af86p+51 "
    "0x1.e844eab511b90p+48 -0x1.1111111111118p+48 0x1.5f15f15f15f18p+45 -0x1.d41d41d41d419p+48 "
    "0x1.d41d41d41d410p+98 0x1.381381381380cp+101 -0x1.302d4044a8217p+101 "
    "0x1.f94da95576a00p+98 -0x1.1111111111110p+99 0x1.5f15f15f15f14p+99 "
    "-0x1.1111111111107p+151 -0x1.6c16c16c16c05p+150 -0x1.d41d41d41d424p+150 "
    "-0x1.5f15f15f15f16p+151 -0x1.3813813813801p+149 -0x1.3813813813811p+149 "
    "-0x1.04104104103fep+150 -0x1.0410410410405p+150 0x1.3813813813813p+151 "
    "0x1.3813813813817p+151 0x1.381381381381bp+151 0x1.2492492492498p+99 "
    "0x1.3813813813820p+151 0x1.2492492492494p+99 0x1.249249249249bp+99 0x1.5f15f15f15f19p+48 "
    "0x1.5f15f15f15f1dp+48 0x1.2492492492492p-2",
)


def test_float_assembly_with_exact_and_large_corners_keeps_its_bits():
    """Every exact corner is read as Fractions, also on a triangle with a
    float coordinate, so the midpoint of two exact corners is not rounded
    before the direction from it to the opposite corner is taken."""
    big = 2 ** 53 + 1
    tri = triangulation([(0, 0), (big, 0), (1, 2.5), (big, 5)], [(0, 1, 2), (1, 3, 2)])
    jets = {v: tuple((v + k) / 7 for k in range(10)) for v in range(4)}
    edges = {e: (0.5, -0.25, 0.125 * (e[0] + e[1])) for e in tri.edges()}
    gs = hermite_interpolate(tri, jets, edges)
    assert [[c.hex() for c in cs] for cs in gs.coeffs] == [row.split() for row in MIXED_FLOAT_HEX]
