"""Command-line front end.

Subcommands: search (run the basis filter pipeline), tables (export the
embedded/derived tables), eval and sample (point and grid evaluation of a
spline file), assemble (global interpolation from a mesh plus data file),
nodal (built-in hexagon demo or nodal functions), export-obj (sampled
surface, optionally with the control net).

Exit codes: 0 success, 1 validation failure, 2 IO or parse error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import serialize
from .errors import DomainError, ParseError, PS12Error, UnknownTable
from .geometry import from_bary, Point2
from .rational import short_form
from .simplex_spline import float_value


def _write(path, text: str):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def cmd_search(args) -> int:
    from .basis_search import filter_pipeline
    report = filter_pipeline(stage=args.stage)
    _write(args.out, serialize.dumps(serialize.search_report_to_dict(report)))
    return 0


def cmd_tables(args) -> int:
    name = args.which
    if name == "dims":
        from .dual_functionals import dim_split_space
        grid = {f"degree {d}": {f"C{r}": dim_split_space(r, d) for r in range(-1, d + 1)}
                for d in range(10)}
        _write(args.out, serialize.dumps(grid))
        return 0
    if name == "dual":
        from .marsden_catalog import BASIS_IDS, catalog
        ids = BASIS_IDS if args.basis is None else (args.basis,)
        out = {bid: serialize.basis_spec_to_dict(catalog(bid)) for bid in ids}
        _write(args.out, serialize.dumps(out))
        return 0
    if name.startswith("restrict") and name[-1] in "0123":
        from .assembly import edge_restriction_tables
        k = int(name[-1])
        out = {f"Q{i}": {f"B{j}^{5 - k}": serialize.tri_poly_to_dict(p)
                         for j, p in per_k[k].items()}
               for i, per_k in enumerate(edge_restriction_tables(), start=1)}
        _write(args.out, serialize.dumps(out))
        return 0
    raise UnknownTable(name)


def _load_spline(path):
    return serialize.spline_from_dict(_read_json(path))


def _to_float(value, name: str) -> float:
    """value in double precision; DomainError naming it, to six digits (its
    integers may be too long for str), when it is beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{name} of about {short_form(value)} is beyond the float range") from None


def _to_layer(s, layer: str):
    from .spline_fn import Spline
    if layer == "float":
        frame_pts = [Point2(_to_float(p.x, "frame coordinate"), _to_float(p.y, "frame coordinate"))
                     for p in s.frame.corners]
        from .geometry import make_frame
        return Spline(make_frame(*frame_pts), s.basis,
                      tuple(_to_float(c, f"coefficient {i}") for i, c in enumerate(s.coeffs)))
    return s


def cmd_eval(args) -> int:
    from .spline_fn import eval_spline
    s = _to_layer(_load_spline(args.spline), args.layer)
    x = serialize.decode_number(args.point[0])
    y = serialize.decode_number(args.point[1])
    if args.layer == "float":
        x, y = _to_float(x, "point coordinate"), _to_float(y, "point coordinate")
    value = eval_spline(s, Point2(x, y))
    _write(args.out, f"{serialize.encode_number(value)}\n")
    return 0


def _float_lattice(n: int) -> list:
    """serialize.barycentric_lattice(n) in floats, each correctly rounded,
    without building its Fractions."""
    return [(i / n, j / n, (n - i - j) / n) for i in range(n + 1) for j in range(n + 1 - i)]


def _float_rows(s, lattice) -> list:
    """(x, y, value) of the float spline s at each lattice barycentric, with
    the bits of float eval_spline and eval_many there."""
    ords = s._float_forms.ords
    return [(*from_bary(s.frame, b), float_value(ords, b)) for b in lattice]


def cmd_sample(args) -> int:
    from .spline_fn import eval_spline
    s = _to_layer(_load_spline(args.spline), args.layer)
    if args.layer == "exact":  # rounded here, where a number beyond the float range is a DomainError
        pts = [from_bary(s.frame, b) for b in serialize.barycentric_lattice(args.grid)]
        rows = [(_to_float(p.x, "point coordinate"), _to_float(p.y, "point coordinate"),
                 _to_float(eval_spline(s, p), "value")) for p in pts]
    else:
        rows = _float_rows(s, _float_lattice(args.grid))
    _write(args.out, serialize.grid_csv(rows))
    return 0


def cmd_assemble(args) -> int:
    from .assembly import hermite_interpolate, verify_smoothness
    tri = serialize.triangulation_from_dict(_read_json(args.mesh))
    jets, edges = serialize.hermite_data_from_dict(_read_json(args.data))
    gs = hermite_interpolate(tri, jets, edges)
    for edge in gs.tri.interior_edges():
        if (gap := verify_smoothness(gs, edge, 3, samples=1)["gaps"][3]) > args.tol:
            in_range = type(gap) is float or abs(gap) <= sys.float_info.max
            text = repr(float(gap)) if in_range else short_form(gap)
            print(f"warning: the join across edge {edge} is not full order-3 "
                  f"(order-3 cross-derivative coefficient gap {text})", file=sys.stderr)
    _write(args.out, serialize.dumps(serialize.global_spline_to_dict(gs)))
    return 0


def cmd_nodal(args) -> int:
    from .assembly import hexagon_demo
    gs = hexagon_demo()
    _write(args.out, serialize.dumps(serialize.global_spline_to_dict(gs)))
    return 0


def cmd_export_obj(args) -> int:
    from .spline_fn import control_mesh
    if args.control_mesh and args.global_spline:
        args.usage_error("--control-mesh needs --spline: a global spline has no one control net")
    n = args.grid
    lattice = _float_lattice(n)
    faces = serialize.lattice_triangles(n)
    verts = []
    cells = []
    if args.spline:
        splines = [_to_layer(_load_spline(args.spline), "float")]
    else:
        gs = serialize.global_spline_from_dict(_read_json(args.global_spline))
        splines = [_to_layer(gs.spline(t), "float") for t in range(len(gs.tri.triangles))]
    for s in splines:
        base = len(verts)
        verts.extend(_float_rows(s, lattice))
        cells.extend(tuple(base + i for i in tri) for tri in faces)
    control = None
    if args.control_mesh:
        cm = control_mesh(splines[0])
        control = ([(p.x, p.y, float(c)) for p, c in cm.points], cm.edges)
    _write(args.out, serialize.obj_surface(verts, cells, control))
    return 0


def _positive_int(text: str) -> int:
    n = int(text) if text.isdecimal() else 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ps12", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="run the basis filter pipeline")
    p.add_argument("--stage", default="linear_factors", choices=serialize.PIPELINE_STAGES)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("tables", help="export a stored/derived table")
    p.add_argument("which", choices=["dual", "dims", "restrict0", "restrict1",
                                     "restrict2", "restrict3"])
    p.add_argument("--basis", choices=list("abcdef"), default=None,
                   help="restrict the dual table to one basis")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("eval", help="evaluate a spline file at a point")
    p.add_argument("--spline", required=True)
    p.add_argument("--point", nargs=2, required=True, metavar=("X", "Y"))
    # argparse reads "-1/2" as an option unless it counts as a negative number
    p._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")
    p.add_argument("--layer", choices=["exact", "float"], default="exact")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sample", help="sample a spline on a barycentric grid")
    p.add_argument("--spline", required=True)
    p.add_argument("--grid", type=_positive_int, default=16)
    p.add_argument("--layer", choices=["exact", "float"], default="float")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("assemble", help="interpolate jets/edge data on a mesh")
    p.add_argument("--mesh", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--tol", type=float, default=1e-9,
                   help="order-3 coefficient gap above which a join is warned of")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_assemble)

    p = sub.add_parser("nodal", help="built-in hexagon nodal-function demo")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_nodal)

    p = sub.add_parser("export-obj", help="sampled surface as Wavefront OBJ")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--spline", default=None)
    src.add_argument("--global", dest="global_spline", default=None)
    p.add_argument("--grid", type=_positive_int, default=16)
    p.add_argument("--control-mesh", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export_obj, usage_error=p.error)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PS12Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
