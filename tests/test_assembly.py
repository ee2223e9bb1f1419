import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import rational_points
from ps12splines.assembly import (
    N_BLOCKS,
    _smoothness_symbolic,
    c3_residual,
    edge_restriction_tables,
    hermite_interpolate,
    hexagon_demo,
    nodal_basis,
    nodal_q_coefficients,
    propagate,
    restriction_normal_form,
    smoothness_system,
    triangulation,
    verify_smoothness,
)
from ps12splines.dual_functionals import apply, build_lambda, lambda_vector
from ps12splines.errors import DimensionMismatch, DomainError, NonConformingMesh
from ps12splines.geometry import Point2, from_bary, make_frame, reference_frame, to_bary
from ps12splines.marsden_catalog import catalog
from ps12splines.polynomial import TriPoly
from ps12splines.simplex_spline import knots
from ps12splines.spline_fn import Spline, eval_spline, face_forms, lagrange_interpolate

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
    """Equality of restriction coefficients as directional-derivative data."""
    return restriction_normal_form(p) == restriction_normal_form(q)


def test_restriction_tables_equal_reference_rows():
    tables = edge_restriction_tables()
    for i, per_k in REFERENCE_ROWS.items():
        for k in range(4):
            derived = tables[i - 1][k]
            expected = per_k[k]
            assert set(derived) == set(expected), (i, k)
            for j, poly in expected.items():
                assert restrictions_equal(derived[j] * F(1, SCALES[k]), poly), (i, k, j)
    for i in range(26, 40):
        assert all(not tables[i - 1][k] for k in range(4)), i


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
        derived = {src + 1: poly for src, poly in rels[i1 - 1].items()}
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
    ratio = expected[k0].terms[e0] / cons[k0].terms[e0]
    for k in expected:
        assert expected[k] == cons[k] * ratio, k


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
    from ps12splines.assembly import GlobalSpline
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


def test_verify_smoothness_rejects_vacuous_checks():
    """samples=0 would compare nothing and report a jump of 1 as zero."""
    verts = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(-1))]
    tri = triangulation(verts, [(0, 1, 2), (0, 1, 3)])
    from ps12splines.assembly import GlobalSpline
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
    for bad in ((0, 1, 1), (0, 1, 2, 2), (0, 1, -1), (0, 1, 3)):
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
