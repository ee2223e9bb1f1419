import json
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ps12splines.cli import main
from ps12splines.geometry import Point2
from ps12splines.serialize import (
    decode_number,
    dumps,
    encode_number,
    global_spline_from_dict,
    global_spline_to_dict,
    search_report_to_dict,
    spline_from_dict,
    spline_to_dict,
)


def hermite_data_to_dict(vertex_jets: dict, edge_data: dict) -> dict:
    return {
        "vertex_jets": {str(i): [encode_number(v) for v in js]
                        for i, js in sorted(vertex_jets.items())},
        "edge_data": {f"{a}-{b}": [encode_number(v) for v in vals]
                      for (a, b), vals in sorted(edge_data.items())},
    }


def run_cli(args, expect=0):
    r = subprocess.run([sys.executable, "-m", "ps12splines.cli", *args],
                       capture_output=True, text=True)
    assert r.returncode == expect, (args, r.returncode, r.stderr[:1500])
    return r


def test_rational_round_trip():
    for v in (F(3, 7), F(-22, 5), F(4)):
        assert decode_number(encode_number(v)) == v
    assert encode_number(F(4)) == "4/1"
    assert isinstance(decode_number(0.25), float)


def test_tables_dims_values():
    r = run_cli(["tables", "dims"])
    grid = json.loads(r.stdout)
    assert grid["degree 5"]["C3"] == 39
    assert grid["degree 4"]["C2"] == 34
    assert grid["degree 9"]["C9"] == 55


def test_tables_unknown_exits_1():
    r = subprocess.run([sys.executable, "-m", "ps12splines.cli", "tables", "dual", "--out",
                        "/nonexistent-dir/zzz.json"], capture_output=True, text=True)
    assert r.returncode == 2  # IO error


def test_eval_sample_determinism(tmp_path):
    sp = {"frame": [["0/1", "0/1"], ["1/1", "0/1"], ["0/1", "1/1"]],
          "basis": "c", "coeffs": ["1/1"] * 39}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(sp))
    r1 = run_cli(["sample", "--spline", str(path), "--grid", "3"])
    r2 = run_cli(["sample", "--spline", str(path), "--grid", "3"])
    assert r1.stdout == r2.stdout
    assert len(r1.stdout.strip().splitlines()) == 1 + 10  # header + lattice(3)
    r = run_cli(["eval", "--spline", str(path), "--point", "1/3", "1/5"])
    assert r.stdout.strip() == "1/1"
    # N = 1 gives the three corner rows
    r = run_cli(["sample", "--spline", str(path), "--grid", "1"])
    assert len(r.stdout.strip().splitlines()) == 4


def test_sample_identity_map_reproduces_coordinates(tmp_path):
    from ps12splines.geometry import from_bary, reference_frame
    from ps12splines.marsden_catalog import catalog
    spec = catalog("c")
    ref = reference_frame()
    sp = {"frame": [["0/1", "0/1"], ["1/1", "0/1"], ["0/1", "1/1"]],
          "basis": "c",
          "coeffs": [f"{from_bary(ref, el.domain_point).x}" for el in spec.elements]}
    path = tmp_path / "ident.json"
    path.write_text(json.dumps(sp))
    r = run_cli(["sample", "--spline", str(path), "--grid", "4"])
    for line in r.stdout.strip().splitlines()[1:]:
        x, y, v = (float(t) for t in line.split(","))
        assert abs(v - x) < 1e-12


def test_eval_outside_is_validation_error(tmp_path):
    sp = {"frame": [["0/1", "0/1"], ["1/1", "0/1"], ["0/1", "1/1"]],
          "basis": "c", "coeffs": ["0/1"] * 39}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(sp))
    run_cli(["eval", "--spline", str(path), "--point", "3", "3"], expect=1)


def test_eval_point_with_negative_rational_coordinates(tmp_path):
    sp = {"frame": [["-1/1", "-1/1"], ["1/1", "0/1"], ["0/1", "1/1"]],
          "basis": "c", "coeffs": ["1/1"] * 39}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(sp))
    r = run_cli(["eval", "--spline", str(path), "--point", "-1/2", "-1/4"])
    assert r.stdout.strip() == "1/1"
    sp["coeffs"] = [f"{i}/7" for i in range(39)]
    path.write_text(json.dumps(sp))
    rational = run_cli(["eval", "--spline", str(path), "--point", "-1/2", "-1/4"])
    decimal = run_cli(["eval", "--spline", str(path), "--point", "-0.5", "-0.25"])
    assert rational.stdout == decimal.stdout
    run_cli(["eval", "--spline", str(path), "--point", "-1/2", "-1/4", "--layer", "float"])


def test_bad_arguments_are_usage_errors(tmp_path):
    sp = {"frame": [["0/1", "0/1"], ["1/1", "0/1"], ["0/1", "1/1"]],
          "basis": "c", "coeffs": ["1/1"] * 39}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(sp))
    for args in (["sample", "--spline", str(path), "--grid", "0"],
                 ["export-obj", "--spline", str(path), "--grid", "0"],
                 ["export-obj"]):
        r = run_cli(args, expect=2)
        assert "usage: ps12" in r.stderr
        assert "Traceback" not in r.stderr


def test_malformed_json_is_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    run_cli(["eval", "--spline", str(path), "--point", "0", "0"], expect=2)
    path.write_text(json.dumps({"frame": [[0, 0]], "basis": "c", "coeffs": []}))
    run_cli(["eval", "--spline", str(path), "--point", "0", "0"], expect=2)


def test_export_obj_counts(tmp_path):
    sp = {"frame": [["0/1", "0/1"], ["1/1", "0/1"], ["0/1", "1/1"]],
          "basis": "c", "coeffs": ["1/2"] * 39}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(sp))
    n = 5
    r = run_cli(["export-obj", "--spline", str(path), "--grid", str(n)])
    verts = [l for l in r.stdout.splitlines() if l.startswith("v ")]
    faces = [l for l in r.stdout.splitlines() if l.startswith("f ")]
    assert len(verts) == (n + 1) * (n + 2) // 2
    assert len(faces) == n * n


def test_export_obj_global_counts(tmp_path):
    from ps12splines.assembly import hexagon_demo
    gs = hexagon_demo()
    path = tmp_path / "g.json"
    path.write_text(dumps(global_spline_to_dict(gs)))
    n = 4
    r = run_cli(["export-obj", "--global", str(path), "--grid", str(n)])
    verts = [l for l in r.stdout.splitlines() if l.startswith("v ")]
    assert len(verts) == 6 * (n + 1) * (n + 2) // 2


def test_spline_json_round_trip(ref):
    from ps12splines.spline_fn import Spline
    s = Spline(ref, "c", tuple(F(i, 7) for i in range(39)))
    again = spline_from_dict(json.loads(dumps(spline_to_dict(s))))
    assert again.coeffs == s.coeffs
    assert again.frame.v == s.frame.v


def test_global_spline_round_trip():
    from ps12splines.assembly import hexagon_demo
    gs = hexagon_demo()
    text = dumps(global_spline_to_dict(gs))
    again = global_spline_from_dict(json.loads(text))
    assert dumps(global_spline_to_dict(again)) == text


def test_assemble_round_trip_and_warning(tmp_path):
    from ps12splines.assembly import triangulation
    from ps12splines.serialize import triangulation_to_dict
    verts = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))]
    tri = triangulation(verts, [(0, 1, 2), (1, 3, 2)])
    jets = {i: tuple(F(0) for _ in range(10)) for i in range(4)}
    jets[0] = (F(1),) + (F(0),) * 9
    edges = {e: (F(0),) * 3 for e in tri.edges()}
    mesh = tmp_path / "mesh.json"
    data = tmp_path / "data.json"
    mesh.write_text(dumps(triangulation_to_dict(tri)))
    data.write_text(dumps(hermite_data_to_dict(jets, edges)))
    r = run_cli(["assemble", "--mesh", str(mesh), "--data", str(data)])
    out = json.loads(r.stdout)
    assert len(out["coeffs"]) == 2
    # generic data cannot meet full order-3 contact: a warning is emitted
    assert "order-3" in r.stderr


def test_assemble_float_mesh(tmp_path):
    """Float barycentrics of an opposite vertex need not sum to exactly 1."""
    rng = random.Random(3)
    tris = [[0, 1, 4], [1, 3, 4], [3, 2, 4], [2, 0, 4]]
    edges = sorted({tuple(sorted(e)) for t in tris for e in ((t[0], t[1]), (t[1], t[2]),
                                                              (t[0], t[2]))})
    mesh = tmp_path / "mesh.json"
    data = tmp_path / "data.json"
    mesh.write_text(json.dumps({"vertices": [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0],
                                             [1.0, 1.5]], "triangles": tris}))
    data.write_text(json.dumps({
        "vertex_jets": {str(i): [rng.uniform(-1, 1) for _ in range(10)] for i in range(5)},
        "edge_data": {f"{a}-{b}": [rng.uniform(-1, 1) for _ in range(3)] for a, b in edges}}))
    r = run_cli(["assemble", "--mesh", str(mesh), "--data", str(data)])
    assert len(json.loads(r.stdout)["coeffs"]) == 4


def test_assemble_vertex_index_out_of_range(tmp_path):
    mesh = tmp_path / "mesh.json"
    data = tmp_path / "data.json"
    mesh.write_text(json.dumps({"vertices": [["0/1", "0/1"], ["1/1", "0/1"], ["0/1", "1/1"]],
                                "triangles": [[0, 1, 5]]}))
    data.write_text(json.dumps({"vertex_jets": {}, "edge_data": {}}))
    r = run_cli(["assemble", "--mesh", str(mesh), "--data", str(data)], expect=1)
    assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr


def test_search_prefix_stage_deterministic():
    r1 = run_cli(["search", "--stage", "candidates"])
    r2 = run_cli(["search", "--stage", "candidates"])
    assert r1.stdout == r2.stdout
    rep = json.loads(r1.stdout)
    assert rep["counts"] == {"candidates": 3648}
    assert rep["survivors"] == []


def test_search_report_serialization_deterministic(pipeline_report):
    t1 = dumps(search_report_to_dict(pipeline_report))
    t2 = dumps(search_report_to_dict(pipeline_report))
    assert t1 == t2
    data = json.loads(t1)
    assert [s["basis_id"] for s in data["survivors"]] == list("abcdef")


#: sha256 of the exact CLI outputs: the ``ps12 search`` report and the
#: derived tables.  A refactor must leave these bytes unchanged.
PINNED_SHA256 = {
    "search": "c69dd40e5c64631bcc7d84724ae66703c482b7cf81031162e0ae02071cb1d6f1",
    "dual": "cc385ca4542dc9823f52b4abe8d30bbbfd46bf4d769b9258fe55c77cebdd9d63",
    "restrict0": "3f1cea44fe35c174e559d886d2dcebd661d6ee7edbcce120be774ed6a47270ed",
    "restrict1": "6a758040f8217fc29554ee5becac96e023e06ff36970714dda6ec26ed7611cdb",
    "restrict2": "95e1ef595d9acf9e05857416421317f6ab57158786dc925ce0e89b3a3b5a1394",
    "restrict3": "fb9728b583f850b97915ae2e3fa70d951cb6318914cc92f70bbdf41309ce3ead",
}


def test_exact_outputs_match_pinned_bytes(pipeline_report, tmp_path):
    import hashlib
    digests = {"search": hashlib.sha256(
        dumps(search_report_to_dict(pipeline_report)).encode()).hexdigest()}
    for name in ("dual", "restrict0", "restrict1", "restrict2", "restrict3"):
        path = tmp_path / f"{name}.json"
        assert main(["tables", name, "--out", str(path)]) == 0
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == PINNED_SHA256


@pytest.mark.parametrize("index", [2.7, True, "2"])
def test_assemble_rejects_non_integer_vertex_index(tmp_path, index):
    mesh = tmp_path / "mesh.json"
    data = tmp_path / "data.json"
    mesh.write_text(json.dumps({"vertices": [["0/1", "0/1"], ["1/1", "0/1"], ["0/1", "1/1"]],
                                "triangles": [[0, 1, index]]}))
    data.write_text(json.dumps({"vertex_jets": {}, "edge_data": {}}))
    r = run_cli(["assemble", "--mesh", str(mesh), "--data", str(data)], expect=2)
    assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr


_small_rational = st.fractions(-4, 4, max_denominator=6)


@settings(max_examples=8, deadline=None)
@given(corners=st.tuples(*[st.tuples(_small_rational, _small_rational)] * 3),
       basis=st.sampled_from("abcdef"), edge=st.integers(0, 2), seed=st.integers(0, 99))
def test_normal_form_coeffs_permute_like_reinterpolation(corners, basis, edge, seed):
    """Re-expressing a triangle's spline on the frame (a, b, opp) permutes its
    coefficients; the reference evaluates the spline at the domain points of
    the new frame and interpolates again.  All six stored corner orders."""
    from itertools import permutations
    from ps12splines.assembly import GlobalSpline, triangulation
    from ps12splines.cli import _normal_form_coeffs, frame_normal
    from ps12splines.geometry import from_bary, signed_area2
    from ps12splines.marsden_catalog import catalog
    from ps12splines.spline_fn import eval_spline, lagrange_interpolate
    assume(signed_area2(*(Point2(*c) for c in corners)) != 0)
    rng = random.Random(seed)
    coeffs = tuple(F(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(39))
    a, b = [(0, 1), (1, 2), (0, 2)][edge]
    spec = catalog(basis)
    for order in permutations(range(3)):
        gs = GlobalSpline(triangulation(corners, [order]), (coeffs,), basis)
        frame = frame_normal(gs, 0, (a, b))
        vals = [eval_spline(gs.spline(0), from_bary(frame, el.domain_point))
                for el in spec.elements]
        want = lagrange_interpolate(basis, frame, vals).coeffs
        assert _normal_form_coeffs(gs, 0, (a, b)) == want, order


def test_cold_cli_stays_free_of_sympy():
    """sympy is no runtime dependency; importing the package and running a
    table export must not load it."""
    code = ("import os, sys\n"
            "import ps12splines\n"
            "from ps12splines import cli\n"
            "assert cli.main(['tables', 'dims', '--out', os.devnull]) == 0\n"
            "assert 'sympy' not in sys.modules, 'sympy loaded'\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr[-1500:]


def test_full_search_stays_free_of_sympy():
    """The whole basis search, the linear-factor split included, runs in a
    fresh interpreter without loading sympy."""
    code = ("import sys\n"
            "from ps12splines.basis_search import filter_pipeline\n"
            "report = filter_pipeline()\n"
            "assert [s.basis_id for s in report.survivors] == list('abcdef')\n"
            "assert 'sympy' not in sys.modules, 'sympy loaded'\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr[-1500:]


def test_cold_exact_commands_leave_numpy_unloaded(tmp_path):
    """Only the float layer imports numpy: in a fresh interpreter, table
    export, exact eval, nodal and exact assembly leave it unloaded, and a
    float eval loads it."""
    from ps12splines.assembly import triangulation
    from ps12splines.serialize import triangulation_to_dict
    spline, mesh, data = (str(tmp_path / n) for n in ("s.json", "mesh.json", "data.json"))
    with open(spline, "w") as fh:
        json.dump({"frame": [["0/1", "0/1"], ["1/1", "0/1"], ["0/1", "1/1"]],
                   "basis": "c", "coeffs": [f"{i}/7" for i in range(39)]}, fh)
    tri = triangulation([(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))],
                        [(0, 1, 2), (1, 3, 2)])
    jets = {i: (F(i),) + (F(0),) * 9 for i in range(4)}
    with open(mesh, "w") as fh:
        fh.write(dumps(triangulation_to_dict(tri)))
    with open(data, "w") as fh:
        fh.write(dumps(hermite_data_to_dict(jets, {e: (F(0),) * 3 for e in tri.edges()})))
    exact = [["tables", "dims"],
             ["eval", "--spline", spline, "--point", "1/3", "1/5"],
             ["nodal"],
             ["assemble", "--mesh", mesh, "--data", data]]
    code = ("import os, sys\n"
            "import ps12splines\n"
            "from ps12splines import cli\n"
            f"for args in {exact!r}:\n"
            "    assert cli.main(args + ['--out', os.devnull]) == 0, args\n"
            "    assert 'numpy' not in sys.modules, f'numpy loaded by {args}'\n"
            f"args = {exact[1]!r} + ['--layer', 'float', '--out', os.devnull]\n"
            "assert cli.main(args) == 0\n"
            "assert 'numpy' in sys.modules, 'float eval ran without numpy'\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr[-1500:]
