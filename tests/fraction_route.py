"""The Fraction route to the exact functionals, the tests' oracle for the
integer route of the library.

The library reads every exact value and derivative off geometry._bary's
integers (or common_denominator of given Fraction barycentrics): _locate
picks the face on them, face_bary maps them to the face, and
simplex_spline.functional_row builds the Bernstein row from those integers.
This module keeps the route it replaced, on Fractions:
- functional_row locates Fraction (or float) macro-barycentrics itself,
  takes each direction as a macro-directional triple of Fractions or
  floats, and maps both through face_bary's common_denominator;
- derivative rebuilds b1 = 1 - b2 - b3 from to_bary's Fractions (a float
  point at the binary rationals of b2, b3) and dots the row with Q[K]'s
  table, carried up one degree per derivative;
- basis_values and value_at_bary read that row, directions by
  direction_coords.
Exact input must give the same Fractions on both routes, and float input
the same float bits.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import add, mul, truediv

from ps12splines.geometry import direction_coords, face_bary, to_bary
from ps12splines.rational import is_exact
from ps12splines.simplex_spline import (_degree_step, _face_ordinates, _locate, bernstein_row,
                                        degree, float_value, knots)
from ps12splines.spline_fn import scaled_basis_tables


def functional_row(beta, deltas=(), deg: int = 5) -> tuple:
    """(face, D, row) at macro-barycentrics beta after one derivative along
    each macro-directional triple in deltas: Fractions over their lcm, any
    float input as floats over D = 1 (a float direction at an exact point
    rounds the exact row once)."""
    exact = is_exact(beta)
    fi, beta = _locate(beta, 1 if exact else None)
    d = deg - len(deltas)
    den, g = face_bary(fi, beta)
    row = bernstein_row(g, d)
    den **= d
    for delta in deltas:
        d += 1
        dden, g = face_bary(fi, delta)
        if exact and isinstance(g[0], float):  # a float direction at an exact point
            exact, row, den = False, [r / den for r in row], 1
        if exact:
            den *= dden
            coef = [d * x for x in g]
        else:
            coef = [d * x / dden for x in g]
        up = [0] * ((d + 1) * (d + 2) // 2)
        for r, step in zip(row, _degree_step(d)):
            if r:
                for c, (i, _) in zip(coef, step):
                    if c:
                        up[i] += c * r
        row = up
    return fi, den, row


def derivative(frame, K, direction, order: int = 1):
    """D^order Q[K] along the corner coefficients direction (valid input
    only), as a function of points: zero outside the closed triangle."""
    K, delta = knots(K), tuple(map(Fraction, direction))

    def fn(p):
        beta = to_bary(frame, p)
        _, b2, b3 = map(Fraction, beta)
        exact_beta = (1 - b2 - b3, b2, b3)
        val = Fraction(0)
        if min(exact_beta) >= 0:
            fi, rden, row = functional_row(exact_beta, (delta,) * order, degree(K))
            den, faces = _face_ordinates(K)
            if faces[fi - 1]:
                val = Fraction(sum(map(mul, row, faces[fi - 1])), rden * den)
        return val if is_exact(beta) else float(val)

    return fn


def basis_values(basis_id: str, beta) -> tuple:
    """The 39 values S_i at beta: the located row times each column of the
    face's scaled table, summed left to right from 0, divided once by Q."""
    fi, den, row = functional_row(beta)
    q, table = scaled_basis_tables(basis_id)
    div = Fraction if is_exact(beta) else truediv
    return tuple(div(reduce(add, map(mul, row, col), 0), den * q) for col in zip(*table[fi - 1]))


def value_at_bary(forms, beta, directions=()):
    """FaceForms' value at beta after one derivative along each Cartesian
    vector in directions."""
    if not directions and not is_exact(beta):
        return float_value(forms.ords, beta)
    deltas = [direction_coords(forms.frame, u) for u in directions]
    fi, den, row = functional_row(beta, deltas)
    ords = forms.ords[fi - 1]
    if den != 1 and not is_exact(ords):
        row, den = [r / den for r in row], 1
    total = reduce(add, map(mul, ords, row), 0)
    return total if isinstance(total, float) else Fraction(total, den)
