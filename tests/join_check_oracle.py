"""The weight-sum join check, the tests' oracle for assembly.verify_smoothness.

The library reads a join's cross derivatives off the near-edge ordinate rows
only, by k passes of differencing, both halves of a side over one
denominator, and takes every gap and sampled jump as one integer maximum
divided once.  This module keeps the route it replaced:
- cross_edge_coefficients reads each half-edge face's 21 ordinates (float
  ones over their own power of 2) and sums the order-k weights
  (k! / beta!) g^beta of _row_terms, per half (cross_derivative), where the
  library runs k differencing passes (simplex_spline._differences);
- verify_smoothness divides per half and per sample half, then takes the
  largest of the Fractions or floats, and compares float(gap) with tol.
Both must give the same Fractions for exact data and the same float bits
for float data, on gaps, jumps, max and pass.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, perm
from numbers import Integral
from operator import truediv

from ps12splines.assembly import _half_edges
from ps12splines.errors import DomainError, NonConformingMesh
from ps12splines.geometry import Point2, direction_coords, face_bary
from ps12splines.rational import _dyadic, finite_numbers
from ps12splines.simplex_spline import _row_terms


def cross_derivative(ords, near, weights, k: int) -> list:
    """Bernstein coefficients j = 0..5-k, from the edge's first end, of an
    order-k cross derivative on a half-edge face with quintic ordinates ords
    (c, read through near): 5! / (5-k)! sum_{|beta|=k} w_beta c[(5-k-j, j, 0)
    + beta].  D_g^k, g the direction's face-directional triple, has the
    weights w_beta = (k! / beta!) g^beta."""
    return [perm(5, k) * sum([w * ords[near[l][j + i]] for (_, i, l), w in weights])
            for j in range(6 - k)]


def cross_edge_coefficients(s, la: int, lb: int, order: int) -> tuple:
    """(out, mid): out[k][half] = (nums, den) per half, each over its own den."""
    mid, halves = _half_edges(la, lb)
    if (ints := s.frame._int_corners) is None:
        a, b = s.frame.corners[la - 1], s.frame.corners[lb - 1]
        dden, delta = _dyadic(direction_coords(s.frame, Point2(-(b.y - a.y), b.x - a.x)))
    else:
        (ax, ay), (bx, by) = ints[1][la - 1], ints[1][lb - 1]
        dden, delta = s.frame._int_direction(ay - by, bx - ax)
    out = [[] for _ in range(order + 1)]
    for fi, p, near in halves:
        _, g = face_bary(fi, delta, dden)
        g0, g1, g2 = (g[i] for i in p)
        den, ords = s._exact_ordinates(fi) if s.exact else _dyadic(s._float_forms.ords[fi - 1])
        for k in range(order + 1):
            weights = [((i, j, l), w * g0 ** i * g1 ** j * g2 ** l) for w, i, j, l in _row_terms(k)]
            out[k].append((cross_derivative(ords, near, weights, k), den * dden ** k))
    return out, mid


def verify_smoothness(gs, edge, order: int, samples: int = 25, tol=None) -> dict:
    """The report of assembly.verify_smoothness: gaps, jumps, max and, given tol, pass."""
    if any(isinstance(x, bool) or not isinstance(x, Integral) for x in (samples, order)) \
            or samples < 1 or not 0 <= order <= 5:
        raise DomainError("verify_smoothness needs an int samples >= 1 and an int order in 0..5")
    if tol is not None:
        finite_numbers([tol], "tol")
    adj = gs.tri._adjacency.get(edge := tuple(sorted(edge)))
    if adj is None or len(adj) != 2:
        raise NonConformingMesh(f"edge {edge!r} is not an interior edge")
    splines = [gs.spline(t) for t in adj]
    exact = all(s.exact for s in splines)
    tol = 1e-10 if tol is None and not exact else tol
    (a, a_mid), (b, b_mid) = (
        cross_edge_coefficients(s, *(gs.tri.triangles[t].index(v) + 1 for v in edge), order)
        for t, s in zip(adj, splines))
    div = Fraction if exact else truediv
    m = samples + 1
    gaps, jumps = {}, {}
    for k in range(order + 1):
        n = 5 - k
        diffs = [([x * bd - y * ad for x, y in zip(an, bn)], ad * bd)
                 for (an, ad), (bn, bd) in zip(a[k], b[k])]
        gaps[k] = max(div(max(map(abs, d)), den) for d, den in diffs)
        best = [0, 0]
        for i in (i for i in range(1, m) if 2 * i != m):
            h, w = (0, 2 * i) if 2 * i < m else (1, 2 * i - m)
            best[h] = max(best[h], abs(sum(comb(n, j) * (m - w) ** (n - j) * w ** j * x
                                           for j, x in enumerate(diffs[h][0]))))
        jumps[k] = max(div(x, den * m ** n) for x, (_, den) in zip(best, diffs))
        if m % 2 == 0:
            (an, ad), (bn, bd) = a[k][a_mid], b[k][b_mid]
            jumps[k] = max(jumps[k], div(abs(an[a_mid - 1] * bd - bn[b_mid - 1] * ad), ad * bd))
    report = {"jumps": jumps, "max": max(jumps.values()), "gaps": gaps}
    if tol is not None:
        report["pass"] = all(float(g) <= tol for g in gaps.values())
    return report
