import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import rational_points
from tripoly import TriPoly
from ps12splines.errors import OutsideDomain, UnknownBasis
from ps12splines.geometry import Point2, from_bary, to_bary
from ps12splines.marsden_catalog import (
    BASIS_IDS,
    bernstein_expansion,
    catalog,
    linear_product,
    marsden_eval,
    quasi_interpolant_bound,
    quasi_interpolant_coeffs,
)
from ps12splines.simplex_spline import knot_label, knots
from ps12splines.spline_fn import basis_values

#: Expected order of the first 25 elements of basis c.
PRINTED_ORDER = [
    "600101", "500201", "410201", "320201", "230210", "140210", "050210", "060110",
    "500102", "411101", "311201", "220211", "131210", "141110", "050120",
    "401102", "311102", "211211", "121211", "131120", "041120",
    "302102", "211112", "121121", "032120",
]


def test_catalog_order_and_examples():
    spec = catalog("c")
    assert [knot_label(el.multiset) for el in spec.elements[:25]] == PRINTED_ORDER
    el = spec.elements[spec.index_of(knots("500201"))]
    assert el.weight == F(1, 4) and el.domain_point == (F(9, 10), F(1, 10), 0)
    el = spec.elements[spec.index_of(knots("121211"))]
    assert el.weight == F(3, 4)
    assert el.domain_point == (F(11, 30), F(7, 15), F(1, 6))
    spec_f = catalog("f")
    el = spec_f.elements[spec_f.index_of(knots("220211"))]
    assert el.domain_point == (F(2, 5), F(2, 5), F(1, 5))


def test_catalog_unknown_id():
    with pytest.raises(UnknownBasis):
        catalog("z")


def test_catalog_matches_search_output(pipeline_report):
    """The embedded data equals the pipeline derivation for every basis."""
    for survivor in pipeline_report.survivors:
        spec = catalog(survivor.basis_id)
        derived = dict(zip(survivor.multisets,
                           zip(survivor.weights, survivor.dual_points,
                               survivor.domain_points)))
        assert set(derived) == set(spec.multisets)
        for el in spec.elements:
            w, duals, xi = derived[el.multiset]
            assert w == el.weight
            assert xi == el.domain_point
            assert tuple(sorted(duals)) == el.dual_points


def test_marsden_identity_exact(ref):
    rng = random.Random(31)
    for bid in BASIS_IDS:
        spec = catalog(bid)
        for _ in range(5):
            p = rational_points(1, seed=rng.randint(0, 10 ** 6))[0]
            c = tuple(F(rng.randint(-8, 8), 3) for _ in range(3))
            lhs, rhs = marsden_eval(spec, p, c)
            assert lhs == rhs


def test_marsden_trivial_cases(ref):
    spec = catalog("c")
    p = Point2(F(1, 3), F(1, 5))
    lhs, rhs = marsden_eval(spec, p, (F(1), F(1), F(1)))
    assert lhs == rhs == 1
    lhs, rhs = marsden_eval(spec, p, (F(2, 3), F(2, 3), F(2, 3)))
    assert lhs == rhs == F(2, 3) ** 5


@pytest.mark.parametrize("x", [(F(2, 3), F(1, 2)), (F(-1, 7), F(1, 3)), (1.5, 0.25)])
def test_marsden_eval_outside_the_triangle_raises_outside_domain(x):
    """The right side reads basis_values, which is defined on the closed
    macrotriangle only: outside it there is no (lhs, 0) to return."""
    with pytest.raises(OutsideDomain):
        marsden_eval(catalog("c"), x, (F(1), F(2), F(3)))


_COEFS = st.one_of(st.just(F(0)), st.fractions(-3, 3, max_denominator=4))


@settings(max_examples=200, deadline=None)
@given(_COEFS, st.lists(st.tuples(_COEFS, _COEFS, _COEFS), max_size=5))
@example(F(0), [(F(1), F(2), F(0))])
@example(F(3), [(F(1), F(-1), F(0)), (F(1), F(1), F(0))])
def test_linear_product_matches_the_ring_product(scalar, forms):
    """linear_product against TriPoly's product, zero entries and a zero
    scalar included: the same nonzero Fraction terms, {} for a zero
    scalar, and the value at (1, 1, 1) as the sum of the terms."""
    want = TriPoly.const(scalar)
    for form in forms:
        want = want * TriPoly.linear(form)
    got = linear_product(scalar, forms)
    assert got == want.terms
    assert all(type(c) is F and c for c in got.values())
    assert sum(got.values()) == want.evaluate(1, 1, 1)
    if not scalar:
        assert got == {}


def test_bernstein_expansion_500():
    spec = catalog("c")
    exp = bernstein_expansion(spec, 5, 0, 0)
    nonzero = {knot_label(el.multiset): v for el, v in zip(spec.elements, exp) if v}
    assert nonzero == {"600101": F(1, 4), "500201": F(1, 8), "500102": F(1, 8),
                       "410201": F(1, 8), "401102": F(1, 8), "411101": F(1, 4)}


def test_bernstein_expansion_sums_to_weights():
    spec = catalog("c")
    total = [F(0)] * 39
    for i1 in range(6):
        for i2 in range(6 - i1):
            exp = bernstein_expansion(spec, i1, i2, 5 - i1 - i2)
            total = [t + e for t, e in zip(total, exp)]
    assert tuple(total) == spec.weights


def test_bernstein_expansion_pointwise(ref):
    from math import factorial
    spec = catalog("c")
    for (i1, i2, i3) in [(5, 0, 0), (2, 2, 1), (0, 3, 2)]:
        coefs = bernstein_expansion(spec, i1, i2, i3)
        for p in rational_points(5, seed=33):
            beta = to_bary(ref, p)
            svals = basis_values("c", beta)
            got = sum(a * s / el.weight for a, s, el in zip(coefs, svals, spec.elements))
            want = F(factorial(5), factorial(i1) * factorial(i2) * factorial(i3)) \
                * beta[0] ** i1 * beta[1] ** i2 * beta[2] ** i3
            assert got == want


def test_basis_values_outside_raises():
    with pytest.raises(OutsideDomain):
        basis_values("c", (F(11, 10), F(-1, 20), F(-1, 20)))


def test_quasi_interpolant_constants_and_linear(ref):
    spec = catalog("c")
    assert quasi_interpolant_bound() == F(275, 3)
    L = quasi_interpolant_coeffs(spec, lambda x, y: F(7, 3))
    assert all(v == F(7, 3) for v in L)
    L = quasi_interpolant_coeffs(spec, lambda x, y: 2 * x - y + F(1, 9))
    for el, v in zip(spec.elements, L):
        p = from_bary(ref, el.domain_point)
        assert v == 2 * p.x - p.y + F(1, 9)


def test_quasi_interpolant_reproduces_bernstein(ref):
    """Exact reproduction of a quintic through the functional + evaluation."""
    spec = catalog("c")
    from math import factorial

    def bern(i1, i2, i3):
        def f(x, y):
            b = to_bary(ref, Point2(x, y))
            return F(factorial(5), factorial(i1) * factorial(i2) * factorial(i3)) \
                * b[0] ** i1 * b[1] ** i2 * b[2] ** i3
        return f

    for (i1, i2, i3) in [(5, 0, 0), (1, 1, 3)]:
        L = quasi_interpolant_coeffs(spec, bern(i1, i2, i3))
        for p in rational_points(3, seed=35):
            beta = to_bary(ref, p)
            got = sum(l * s for l, s in zip(L, basis_values("c", beta)))
            assert got == bern(i1, i2, i3)(p.x, p.y)


def test_quasi_interpolant_not_projector(ref):
    """There are splines the quasi-interpolant does not reproduce; the second
    basis function is a frozen witness (its image picks up a -1/24
    contribution on element 12)."""
    spec = catalog("c")
    from ps12splines.spline_fn import Spline, eval_spline
    witness = Spline(ref, "c", (F(0), F(1)) + (F(0),) * 37)
    L = quasi_interpolant_coeffs(spec, lambda x, y: eval_spline(witness, Point2(x, y)))
    assert tuple(L) != witness.coeffs
    assert L[12] == F(-1, 24)


def test_operator_bound_on_samples(ref):
    spec = catalog("c")
    rng = random.Random(36)
    for _ in range(3):
        vals = {}
        def f(x, y):
            key = (x, y)
            if key not in vals:
                vals[key] = F(rng.randint(-100, 100), 7)
            return vals[key]
        L = quasi_interpolant_coeffs(spec, f)
        bound = quasi_interpolant_bound() * max(abs(v) for v in vals.values())
        assert all(abs(v) <= bound for v in L)


def test_boundary_domain_points_parameters():
    spec = catalog("c")
    params = sorted(xi[1] for xi in spec.domain_points if xi[2] == 0)
    assert params == [F(0), F(1, 10), F(1, 5), F(2, 5), F(3, 5), F(4, 5), F(9, 10), F(1)]


def test_s3_consistency_of_class_completion():
    # members of one class share the weight; dual points map under symmetry
    for bid in BASIS_IDS:
        spec = catalog(bid)
        by_label = {}
        for el in spec.elements:
            by_label.setdefault(el.class_label, set()).add(el.weight)
        assert all(len(ws) == 1 for ws in by_label.values())
