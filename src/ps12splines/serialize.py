"""JSON / CSV / OBJ formats.

Rationals serialize as "p/q" strings in lowest terms (q > 0) and parse back
exactly; floats stay JSON numbers, so the layer of a file is visible in the
data itself.  All writers sort keys and order lists canonically, making
repeated runs byte-identical.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import isfinite

from .errors import DomainError, ParseError
from .geometry import Point2, make_frame
from .rational import format_rational, parse_rational
from .simplex_spline import knot_label


def encode_number(v):
    if isinstance(v, Fraction):
        return format_rational(v)
    if isinstance(v, int):
        return format_rational(Fraction(v))
    return float(v)


def decode_number(v):
    """A JSON string or int as a Fraction, a finite float as it is."""
    if isinstance(v, str):
        return parse_rational(v)
    if isinstance(v, bool) or v is None:
        raise ParseError(f"not a number: {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if not isfinite(v):  # json reads NaN, Infinity and 1e400
        raise ParseError(f"not a finite number: {v!r}")
    return float(v)


def encode_point(p):
    return [encode_number(p[0]), encode_number(p[1])]


def decode_point(obj):
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise ParseError(f"not a point: {obj!r}")
    return Point2(decode_number(obj[0]), decode_number(obj[1]))


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Splines
# ---------------------------------------------------------------------------

# No caller in src/: perfbench/tracer.py wraps this name.
def spline_to_dict(s) -> dict:
    return {
        "frame": [encode_point(p) for p in s.frame.corners],
        "basis": s.basis,
        "coeffs": [encode_number(c) for c in s.coeffs],
    }


def spline_from_dict(obj):
    from .errors import PS12Error
    from .spline_fn import Spline
    try:
        corners = [decode_point(p) for p in obj["frame"]]
        coeffs = tuple(decode_number(c) for c in obj["coeffs"])
        basis = obj["basis"]
        if len(corners) != 3:
            raise ParseError("a spline frame needs exactly three corners")
        return Spline(make_frame(*corners), basis, coeffs)
    except ParseError:
        raise
    except (KeyError, TypeError, PS12Error) as exc:
        raise ParseError(f"malformed spline object: {exc}") from exc


# ---------------------------------------------------------------------------
# Triangulations, global splines, interpolation data
# ---------------------------------------------------------------------------

def triangulation_to_dict(tri) -> dict:
    return {
        "vertices": [encode_point(v) for v in tri.vertices],
        "triangles": [list(t) for t in tri.triangles],
    }


def triangulation_from_dict(obj):
    from .assembly import triangulation
    try:
        verts = [decode_point(v) for v in obj["vertices"]]
        tris = [tuple(t) for t in obj["triangles"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed triangulation: {exc}") from exc
    for t in tris:
        if not all(isinstance(i, int) and not isinstance(i, bool) for i in t):
            raise ParseError(f"triangle vertex indices must be integers: {list(t)!r}")
    return triangulation(verts, tris)


def global_spline_to_dict(gs) -> dict:
    out = triangulation_to_dict(gs.tri)
    out["basis"] = gs.basis
    out["coeffs"] = [[encode_number(c) for c in cs] for cs in gs.coeffs]
    return out


def global_spline_from_dict(obj):
    from .assembly import GlobalSpline
    tri = triangulation_from_dict(obj)
    try:
        coeffs = tuple(tuple(decode_number(c) for c in cs) for cs in obj["coeffs"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed global spline: {exc}") from exc
    return GlobalSpline(tri, coeffs, obj.get("basis", "c"))


def hermite_data_from_dict(obj):
    try:
        jets = {int(k): tuple(decode_number(v) for v in js)
                for k, js in obj["vertex_jets"].items()}
        edges = {}
        for key, vals in obj["edge_data"].items():
            a, b = key.split("-")
            edges[(int(a), int(b))] = tuple(decode_number(v) for v in vals)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # a list has no .items()
        raise ParseError(f"malformed interpolation data: {exc}") from exc
    return jets, edges


# ---------------------------------------------------------------------------
# Basis specs and search reports
# ---------------------------------------------------------------------------

def basis_spec_to_dict(spec) -> dict:
    return {
        "id": spec.id,
        "elements": [
            {
                "knots": knot_label(el.multiset),
                "class": el.class_label,
                "weight": encode_number(el.weight),
                "dual_points": [[encode_number(x) for x in p] for p in el.dual_points],
                "domain_point": [encode_number(x) for x in el.domain_point],
            }
            for el in spec.elements
        ],
    }


def tri_poly_to_dict(poly) -> dict:
    return {",".join(map(str, exp)): encode_number(c)
            for exp, c in sorted(poly.items())}


#: The filter stages of basis_search.filter_pipeline, in order: the values
#: of a search report's stage and the keys of its counts.  Defined with the
#: report format, so that the CLI parser can offer them without loading the
#: search.
PIPELINE_STAGES = ("candidates", "full_rank", "nonnegative", "positive",
                   "domain_inside", "boundary_counts", "linear_factors")


def search_report_to_dict(report) -> dict:
    return {
        "stage": report.stage,
        "counts": dict(report.counts),
        "survivors": [
            {
                "basis_id": s.basis_id,
                "classes": list(s.labels),
                "elements": [
                    {
                        "knots": knot_label(K),
                        "weight": encode_number(w),
                        "domain_point": [encode_number(x) for x in xi],
                        "dual_points": [[encode_number(x) for x in p] for p in dps]
                        if dps else None,
                    }
                    for K, w, xi, dps in zip(s.multisets, s.weights,
                                             s.domain_points, s.dual_points)
                ],
            }
            for s in report.survivors
        ],
    }


# ---------------------------------------------------------------------------
# Grids, CSV, OBJ
# ---------------------------------------------------------------------------

def barycentric_lattice(resolution: int) -> list:
    """Lattice (i, j, k) / resolution over the triangle, lexicographic."""
    if resolution < 1:
        raise DomainError("resolution must be >= 1")
    n = resolution
    return [(Fraction(i, n), Fraction(j, n), Fraction(n - i - j, n))
            for i in range(n + 1) for j in range(n + 1 - i)]


def lattice_triangles(resolution: int) -> list:
    """Triangles of the lattice triangulation, indices into the lattice."""
    idx = {ij: n for n, ij in enumerate((i, j) for i in range(resolution + 1)
                                        for j in range(resolution + 1 - i))}
    tris = []
    for i in range(resolution):
        for j in range(resolution - i):
            tris.append((idx[(i, j)], idx[(i + 1, j)], idx[(i, j + 1)]))
            if j < resolution - i - 1:
                tris.append((idx[(i + 1, j)], idx[(i + 1, j + 1)], idx[(i, j + 1)]))
    return tris


def grid_csv(rows) -> str:
    lines = ["x,y,value"] + [f"{float(x)!r},{float(y)!r},{float(v)!r}" for x, y, v in rows]
    return "\n".join(lines) + "\n"


def obj_surface(vertex_rows, face_rows, control=None) -> str:
    """Wavefront OBJ text: sampled surface plus an optional control net
    (points and 'l' segments)."""
    lines = ["o surface"]
    for x, y, z in vertex_rows:
        lines.append(f"v {float(x)!r} {float(y)!r} {float(z)!r}")
    for tri in face_rows:
        lines.append("f " + " ".join(str(i + 1) for i in tri))
    if control is not None:
        points, edges = control
        base = len(vertex_rows)
        lines.append("o control_net")
        for x, y, z in points:
            lines.append(f"v {float(x)!r} {float(y)!r} {float(z)!r}")
        for a, b in edges:
            lines.append(f"l {base + a + 1} {base + b + 1}")
    return "\n".join(lines) + "\n"
