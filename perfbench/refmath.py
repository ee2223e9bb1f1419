"""Reference mathematics for the output checks.

Everything here is independent of the library under test: bivariate
polynomials with exact rational coefficients, their derivatives, and the
seeded inputs (frames, meshes, points) the workloads feed to the library.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

#: The ten Cartesian jet orders, in the order the library's Hermite data uses.
JET_ORDERS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
              (3, 0), (2, 1), (1, 2), (0, 3))


class Poly2:
    """A bivariate polynomial sum c[i, j] x^i y^j over the rationals."""

    def __init__(self, terms: dict):
        self.terms = {k: v for k, v in terms.items() if v}

    @classmethod
    def random(cls, rng: random.Random, degree: int = 5) -> "Poly2":
        return cls({(i, j): F(rng.randint(-9, 9), rng.randint(1, 6))
                    for i in range(degree + 1) for j in range(degree + 1 - i)})

    def __call__(self, x, y):
        return sum(c * x ** i * y ** j for (i, j), c in self.terms.items())

    def diff(self, a: int, b: int) -> "Poly2":
        """The partial derivative d^a/dx^a d^b/dy^b."""
        out = {}
        for (i, j), c in self.terms.items():
            if i < a or j < b:
                continue
            k = c
            for r in range(a):
                k *= i - r
            for r in range(b):
                k *= j - r
            out[(i - a, j - b)] = k
        return Poly2(out)

    def directional(self, u, order: int) -> "Poly2":
        """The order-th derivative in the direction u = (ux, uy)."""
        p = self
        for _ in range(order):
            dx, dy = p.diff(1, 0), p.diff(0, 1)
            p = Poly2({k: u[0] * dx.terms.get(k, 0) + u[1] * dy.terms.get(k, 0)
                       for k in set(dx.terms) | set(dy.terms)})
        return p


def random_rational(rng: random.Random, num: int = 9, den: int = 6) -> F:
    return F(rng.randint(-num, num), rng.randint(1, den))


def random_frame_corners(rng: random.Random) -> tuple:
    """Three rational corners of a non-degenerate, non-unit triangle in the
    first quadrant (ps12's argument parser reads a leading '-' of a --point
    coordinate as an option, so points stay nonnegative)."""
    while True:
        pts = [(F(rng.randint(0, 16), rng.randint(1, 4)),
                F(rng.randint(0, 16), rng.randint(1, 4))) for _ in range(3)]
        (ax, ay), (bx, by), (cx, cy) = pts
        area2 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        if abs(area2) >= 1:
            return tuple(pts) if area2 > 0 else (pts[0], pts[2], pts[1])


def random_bary(rng: random.Random, den: int = 97) -> tuple:
    """A rational barycentric triple in the closed triangle."""
    a = rng.randint(0, den)
    b = rng.randint(0, den - a)
    return (F(a, den), F(b, den), F(den - a - b, den))


def point_at(corners, beta) -> tuple:
    (ax, ay), (bx, by), (cx, cy) = corners
    return (beta[0] * ax + beta[1] * bx + beta[2] * cx,
            beta[0] * ay + beta[1] * by + beta[2] * cy)


def perturbed_grid(rng: random.Random, nx: int, ny: int) -> tuple:
    """Vertices and triangles of an nx x ny grid of split squares whose
    interior vertices are moved by seeded rational offsets of at most 1/5."""
    verts = []
    for j in range(ny + 1):
        for i in range(nx + 1):
            inner = 0 < i < nx and 0 < j < ny
            dx = F(rng.randint(-2, 2), 10) if inner else F(0)
            dy = F(rng.randint(-2, 2), 10) if inner else F(0)
            verts.append((F(i) + dx, F(j) + dy))
    tris = []
    for j in range(ny):
        for i in range(nx):
            a = j * (nx + 1) + i
            b, c = a + 1, a + nx + 1
            d = c + 1
            if rng.random() < 0.5:
                tris += [(a, b, d), (a, d, c)]
            else:
                tris += [(a, b, c), (b, d, c)]
    return verts, tris


def mesh_edges(tris) -> list:
    return sorted({tuple(sorted(e)) for t in tris
                   for e in ((t[0], t[1]), (t[1], t[2]), (t[0], t[2]))})


def hermite_data_of(poly: Poly2, verts, tris) -> tuple:
    """Vertex jets and edge cross derivatives of a polynomial, in the layout
    hermite_interpolate takes: per edge (a, b) the second derivative along
    u = rot90(v_b - v_a) at the two quarterpoints and the first at the
    midpoint."""
    jets = {i: tuple(poly.diff(a, b)(x, y) for a, b in JET_ORDERS)
            for i, (x, y) in enumerate(verts)}
    edges = {}
    for a, b in mesh_edges(tris):
        (ax, ay), (bx, by) = verts[a], verts[b]
        u = (-(by - ay), bx - ax)
        d1, d2 = poly.directional(u, 1), poly.directional(u, 2)
        edges[(a, b)] = (d2((3 * ax + bx) / 4, (3 * ay + by) / 4),
                         d1((ax + bx) / 2, (ay + by) / 2),
                         d2((ax + 3 * bx) / 4, (ay + 3 * by) / 4))
    return jets, edges


def random_hermite_data(rng: random.Random, verts, tris) -> tuple:
    jets = {i: tuple(random_rational(rng) for _ in range(10)) for i in range(len(verts))}
    edges = {e: tuple(random_rational(rng) for _ in range(3)) for e in mesh_edges(tris)}
    return jets, edges


def float_bound(values) -> float:
    """Stated bound for float-layer results: 1e-9 times the largest
    coefficient magnitude (at least 1).  The scaled basis functions are
    nonnegative and sum to one, so |f| <= max|c|; double-precision Bernstein
    evaluation loses a few hundred ulps of that at most."""
    return 1e-9 * max(1.0, max(abs(float(v)) for v in values))
