import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knot_oracles import _pieces, bspline_derivative, expand_window, global_knots, local_knots
from ps12splines.bspline1d import UnivariateBSplineRef, bspline_coefficients, ref_from_counts
from ps12splines.errors import DomainError

HALF = F(1, 2)


# ---------------------------------------------------------------------------
# Oracle: the Cox-de Boor recursion over a B-spline's own knot window
# ---------------------------------------------------------------------------

def _bspline_raw(knots: tuple, t):
    """Recursive B-spline value from its own knot window (right-continuous,
    closed at t = 1)."""
    if len(knots) == 2:
        t0, t1 = knots
        return F(t0 <= t < t1 or (t == t1 == 1 and t0 < t1))
    total = F(0)
    left, right = knots[:-1], knots[1:]
    if knots[-2] != knots[0]:
        total += (t - knots[0]) / (knots[-2] - knots[0]) * _bspline_raw(left, t)
    if knots[-1] != knots[1]:
        total += (knots[-1] - t) / (knots[-1] - knots[1]) * _bspline_raw(right, t)
    return total


def _derivative_terms(knots: tuple, order: int):
    """Expand d/dt^order of B[knots] as [(coef, knot window)] terms; a
    degree-0 window differentiates to nothing."""
    terms = [(F(1), knots)]
    for _ in range(order):
        nxt = []
        for coef, kn in terms:
            d = len(kn) - 2
            if d == 0:
                continue
            if kn[-2] != kn[0]:
                nxt.append((coef * d / (kn[-2] - kn[0]), kn[:-1]))
            if kn[-1] != kn[1]:
                nxt.append((coef * -d / (kn[-1] - kn[1]), kn[1:]))
        terms = nxt
    return terms


def _oracle_derivative(knots: tuple, t, order: int):
    return sum((c * _bspline_raw(kn, t) for c, kn in _derivative_terms(knots, order)), F(0))


def _window(counts) -> tuple:
    return (F(0),) * counts[0] + (HALF,) * counts[1] + (F(1),) * counts[2]


# knot-count table of the shorthand B-splines, degree -> list of (zeros, halves, ones)
SHORTHAND_COUNTS = {
    5: [(6, 1, 0), (5, 2, 0), (4, 2, 1), (3, 2, 2), (2, 2, 3), (1, 2, 4), (0, 2, 5), (0, 1, 6)],
    4: [(5, 1, 0), (4, 2, 0), (3, 2, 1), (2, 2, 2), (1, 2, 3), (0, 2, 4), (0, 1, 5)],
    3: [(4, 1, 0), (3, 2, 0), (2, 2, 1), (1, 2, 2), (0, 2, 3), (0, 1, 4)],
    2: [(3, 1, 0), (2, 2, 0), (1, 2, 1), (0, 2, 2), (0, 1, 3)],
}


def test_shorthand_windows_match_table():
    for d, rows in SHORTHAND_COUNTS.items():
        assert len(global_knots(d)) == 2 * d + 4
        for i, counts in enumerate(rows, start=1):
            assert UnivariateBSplineRef(d, i).counts() == counts
            assert ref_from_counts(d, *counts) == UnivariateBSplineRef(d, i)


def test_ref_from_counts_matches_counted_windows():
    """The closed-form window counts find the window that counting the knots
    of local_knots finds, for every count triple at degrees 0..9, and None
    for every triple that is no window; outside degrees 2..5 a matching
    window raises DomainError, since a reference has degree 2..5."""
    for d in range(10):
        counted = {}
        for i in range(1, d + 4):
            kn = local_knots(d, i)
            counted[kn.count(0), kn.count(HALF), kn.count(1)] = i
        for triple in product(range(-1, d + 4), repeat=3):
            i = counted.get(triple)
            if i is not None and not 2 <= d <= 5:
                with pytest.raises(DomainError):
                    ref_from_counts(d, *triple)
                continue
            got = ref_from_counts(d, *triple)
            assert got is None if i is None else got == UnivariateBSplineRef(d, i)
            assert got is None or got.counts() == triple


def test_partition_of_unity_quintic():
    for t in [F(0), F(1, 10), F(1, 2), F(9, 13), F(1)]:
        total = sum(bspline_derivative(UnivariateBSplineRef(5, i), t, 0) for i in range(1, 9))
        assert total == 1


def test_endpoint_convention():
    assert bspline_derivative(UnivariateBSplineRef(5, 1), F(0), 0) == 1
    assert bspline_derivative(UnivariateBSplineRef(5, 8), F(1), 0) == 1
    assert bspline_derivative(UnivariateBSplineRef(5, 7), F(1), 0) == 0


def test_derivative_matches_difference_quotient():
    ref = UnivariateBSplineRef(5, 3)
    t = F(3, 10)
    h = F(1, 10 ** 6)
    exact = bspline_derivative(ref, t, 1)
    approx = (bspline_derivative(ref, t + h, 0) - bspline_derivative(ref, t - h, 0)) / (2 * h)
    assert abs(float(exact - approx)) < 1e-9


def test_expand_window_degenerate_and_direct():
    assert expand_window(5, 7, 0, 0) == ()
    terms = expand_window(5, 6, 1, 0)
    assert terms == ((F(1), UnivariateBSplineRef(5, 1)),)


def test_expand_window_interpolates_off_windows():
    # single interior knot between zeros and ones is not a window: expansion
    # must agree with the raw B-spline everywhere
    for counts in [(2, 1, 2), (3, 0, 2), (2, 0, 3), (4, 1, 1)]:
        d = sum(counts) - 2
        terms = expand_window(d, *counts)
        window = (F(0),) * counts[0] + (HALF,) * counts[1] + (F(1),) * counts[2]
        for t in [F(i, 17) for i in range(18)]:
            got = sum(c * bspline_derivative(ref, t, 0) for c, ref in terms)
            assert got == _bspline_raw(window, t), (counts, t)


#: Every knot window of degrees 2..5 that expand_window accepts: the
#: consecutive B-splines, the off-windows and the all-coincident zero ones.
WINDOWS = tuple((z, h, d + 2 - z - h) for d in range(2, 6) for h in range(3)
                for z in range(d + 3 - h))


#: Rational t in [-1/4, 5/4], or one of the knots 0, 1/2 and 1.
PARAMETERS = st.one_of(st.sampled_from((F(0), HALF, F(1))),
                       st.fractions(F(-1, 4), F(5, 4), max_denominator=10 ** 4))


@pytest.mark.parametrize("counts", WINDOWS, ids=lambda c: "-".join(map(str, c)))
@settings(max_examples=30, deadline=None)
@given(PARAMETERS, st.data())
def test_values_derivatives_and_expansions_match_cox_de_boor(counts, t, data):
    d = sum(counts) - 2
    order = data.draw(st.integers(0, d + 1), label="order")
    want = _oracle_derivative(_window(counts), t, order)
    terms = expand_window(d, *counts)
    got = sum((c * bspline_derivative(ref, t, order) for c, ref in terms), F(0))
    assert got == want, (counts, t, order)
    direct = ref_from_counts(d, *counts)
    if direct is not None:
        assert terms == ((F(1), direct),)
        assert bspline_derivative(direct, t, order) == want


@pytest.mark.parametrize("d", range(2, 6))
def test_bspline_coefficients_read_back_the_pieces(d):
    """The Bernstein pieces of seeded rational combinations of the d + 3
    consecutive B-splines, built from the B-splines' own pieces, give the
    combinations' coefficients back exactly."""
    rng = random.Random(d)
    refs = [UnivariateBSplineRef(d, i) for i in range(1, d + 4)]
    for _ in range(5):
        coefs = tuple(F(rng.randint(-50, 50), rng.randint(1, 9)) for _ in refs)
        pieces = [[sum((x * _pieces(d, *ref.counts())[h][n] for x, ref in zip(coefs, refs)), F(0))
                   for n in range(d + 1)] for h in (0, 1)]
        assert bspline_coefficients(d, pieces) == coefs
