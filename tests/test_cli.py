import json
import os
import random
import re
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


def test_export_obj_control_mesh_needs_a_single_spline(tmp_path):
    """--control-mesh with --global is a usage error, not a flag dropped without a word: the
    control net belongs to one spline."""
    from ps12splines.assembly import hexagon_demo
    path = tmp_path / "g.json"
    path.write_text(dumps(global_spline_to_dict(hexagon_demo())))
    r = run_cli(["export-obj", "--global", str(path), "--grid", "2", "--control-mesh"], expect=2)
    assert r.stderr.startswith("usage: ps12 export-obj") and not r.stdout
    assert "ps12 export-obj: error: --control-mesh needs --spline" in r.stderr
    assert "Traceback" not in r.stderr


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


def test_assemble_warns_on_exact_gaps_beyond_the_float_range(tmp_path):
    """Exact data scaled by 10^400 give order-3 gaps no float holds: assemble warns with each
    gap to six digits and exits 0, with no OverflowError traceback."""
    rng = random.Random(400)
    verts = [[f"{i * 50 + rng.randint(-9, 9)}/50", f"{j * 50 + rng.randint(-9, 9)}/50"]
             for j in range(2) for i in range(2)]
    big = lambda: f"{rng.randint(-9, 9) * 10 ** 400}/{rng.randint(1, 9)}"
    mesh, data = tmp_path / "mesh.json", tmp_path / "data.json"
    mesh.write_text(json.dumps({"vertices": verts, "triangles": [[0, 1, 3], [0, 3, 2]]}))
    data.write_text(json.dumps({"vertex_jets": {str(v): [big() for _ in range(10)] for v in range(4)},
                                "edge_data": {e: [big() for _ in range(3)]
                                              for e in ("0-1", "0-2", "0-3", "1-3", "2-3")}}))
    r = run_cli(["assemble", "--mesh", str(mesh), "--data", str(data)])
    assert re.fullmatch(r"warning: the join across edge \(0, 3\) is not full order-3 "
                        r"\(order-3 cross-derivative coefficient gap \d\.\d+E\+40\d\)\n", r.stderr)
    assert len(json.loads(r.stdout)["coeffs"]) == 2


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
    "assemble": "1d46a824dba9d88084aefad75858d8038ab435b883092a00033ab4d2636ebd79",
}


def test_exact_outputs_match_pinned_bytes(pipeline_report, tmp_path):
    import hashlib
    digests = {"search": hashlib.sha256(
        dumps(search_report_to_dict(pipeline_report)).encode()).hexdigest()}
    for name in ("dual", "restrict0", "restrict1", "restrict2", "restrict3"):
        path = tmp_path / f"{name}.json"
        assert main(["tables", name, "--out", str(path)]) == 0
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    # exact Hermite assembly on the CI's two rational triangles and data
    mesh, data, path = (tmp_path / n for n in ("mesh.json", "data.json", "assemble.json"))
    mesh.write_text(json.dumps({"vertices": [["0/1", "0/1"], ["1/1", "0/1"], ["0/1", "1/1"],
                                             ["1/1", "1/1"]], "triangles": [[0, 1, 2], [1, 3, 2]]}))
    data.write_text(json.dumps({
        "vertex_jets": {str(v): [f"{v + k}/7" for k in range(10)] for v in range(4)},
        "edge_data": {e: ["1/3", "-1/5", "2/9"] for e in ("0-1", "0-2", "1-2", "1-3", "2-3")}}))
    assert main(["assemble", "--mesh", str(mesh), "--data", str(data), "--out", str(path)]) == 0
    digests["assemble"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == PINNED_SHA256


FLOAT_PINNED_SHA256 = {
    "eval": "29c36eeaee8fd5ecf5499c405cf8fc07a6f6ea889ae21fd9f19144c669b7e2e6",
    "sample32": "94e1e9ede0b94a886fb213f9d78a246c00efbc6bdc22c8eb5f4ce91b76bc92e2",
    "sample200": "41c692b68bfc5ffd4a3ab30108c20520cb50a7d71a93954f6a4593492a70c93f",
    "assemble": "658e9af22f874262f63dcde4e34dc8634e2f6826cf5215fd6d930f09cfbeabcf",
}


def _float_output_digests(tmp_path, capsys) -> dict:
    """sha256 of float eval at five points, float sample at grids 32 and 200 (20 301 points,
    the bits of eval_many's batch there), and float assemble on the exact pin's two triangles,
    its output and its order-3 warnings, which read the float ordinates."""
    import hashlib
    spline, out = tmp_path / "s.json", tmp_path / "out"
    spline.write_text(json.dumps({"frame": [["1/3", "-2/7"], ["13/5", "1/9"], ["2/11", "17/6"]],
                                  "basis": "e", "coeffs": [f"{(-3) ** (i % 5) * (i + 1)}/{7 + i}"
                                                           for i in range(39)]}))
    text = ""
    for x, y in (("1", "0.9"), ("0.6", "0.3"), ("1.5", "0.5"), ("0.4", "2.0"), ("13/5", "1/9")):
        assert main(["eval", "--spline", str(spline), "--point", x, y, "--layer", "float",
                     "--out", str(out)]) == 0
        text += out.read_text()
    digests = {"eval": hashlib.sha256(text.encode()).hexdigest()}
    for grid in (32, 200):
        assert main(["sample", "--spline", str(spline), "--grid", str(grid), "--out", str(out)]) == 0
        digests[f"sample{grid}"] = hashlib.sha256(out.read_bytes()).hexdigest()
    mesh, data = tmp_path / "mesh.json", tmp_path / "data.json"
    mesh.write_text(json.dumps({"vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                                "triangles": [[0, 1, 2], [1, 3, 2]]}))
    data.write_text(json.dumps({
        "vertex_jets": {str(v): [(v + k) / 7 for k in range(10)] for v in range(4)},
        "edge_data": {e: [1 / 3, -1 / 5, 2 / 9] for e in ("0-1", "0-2", "1-2", "1-3", "2-3")}}))
    capsys.readouterr()
    assert main(["assemble", "--mesh", str(mesh), "--data", str(data), "--out", str(out)]) == 0
    digests["assemble"] = hashlib.sha256(out.read_bytes() +
                                         capsys.readouterr().err.encode()).hexdigest()
    return digests


def test_float_outputs_match_pinned_bytes(tmp_path, capsys):
    """The float layer's CLI bytes: its ordinates, values and join gaps keep their bits."""
    assert _float_output_digests(tmp_path, capsys) == FLOAT_PINNED_SHA256


#: sha256 of ps12 assemble's --out file and of its stderr warning lines on a
#: seeded perturbed 4 x 4 grid with random data, exact and as floats.
GRID_PINNED_SHA256 = {
    "exact out": "c080edf4ad88e1d3b39197ea50a00b5abfb564a5799d8b5ffab7b5589c06d7fb",
    "exact err": "615c48be917782ae504b05b7636950108c1e2debf676de89047ed5e220618a80",
    "float out": "d2f768d7d41ec6c13d44a48a614f803db2136a542cdb5ed5f30bc9274277e247",
    "float err": "9b784f305b01194e6c0ceaf326006bee690e2fadd1172711f5b0ab1973c4a7c0",
}


def _grid_assemble_digests(tmp_path, capsys) -> dict:
    """32 triangles, 40 interior joins: rational vertices with the inner ones moved by up to
    1/5, each square split along a random diagonal, and random rational jets and edge data."""
    import hashlib
    rng, n = random.Random(40), 4
    verts = [(F(10 * i + rng.randint(-2, 2) * (0 < i < n and 0 < j < n), 10),
              F(10 * j + rng.randint(-2, 2) * (0 < i < n and 0 < j < n), 10))
             for j in range(n + 1) for i in range(n + 1)]
    tris = []
    for j in range(n):
        for i in range(n):
            a = j * (n + 1) + i
            b, c, d = a + 1, a + n + 1, a + n + 2
            tris += [(a, b, d), (a, d, c)] if rng.random() < 0.5 else [(a, b, c), (b, d, c)]
    edges = sorted({tuple(sorted(e)) for a, b, c in tris for e in ((a, b), (b, c), (a, c))})
    assert len(edges) == 56

    def rational():
        return F(rng.randint(-99, 99), rng.randint(1, 30))
    jets = [[rational() for _ in range(10)] for _ in verts]
    edge_data = [[rational() for _ in range(3)] for _ in edges]
    mesh, data, out = (tmp_path / f for f in ("mesh.json", "data.json", "out.json"))
    digests = {}
    for layer, num in (("exact", lambda x: f"{x.numerator}/{x.denominator}"), ("float", float)):
        mesh.write_text(json.dumps({"vertices": [[num(x) for x in v] for v in verts],
                                    "triangles": [list(t) for t in tris]}))
        data.write_text(json.dumps({
            "vertex_jets": {str(v): [num(x) for x in j] for v, j in enumerate(jets)},
            "edge_data": {f"{a}-{b}": [num(x) for x in d] for (a, b), d in zip(edges, edge_data)}}))
        capsys.readouterr()
        assert main(["assemble", "--mesh", str(mesh), "--data", str(data), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err.count("warning: ") == 40
        digests[f"{layer} out"] = hashlib.sha256(out.read_bytes()).hexdigest()
        digests[f"{layer} err"] = hashlib.sha256(err.encode()).hexdigest()
    return digests


def test_assemble_on_a_grid_matches_pinned_bytes(tmp_path, capsys):
    """Every join of a 4 x 4 grid keeps its bytes: the coefficients and the order-3 gaps."""
    assert _grid_assemble_digests(tmp_path, capsys) == GRID_PINNED_SHA256


@pytest.mark.parametrize("index", [2.7, True, "2"])
def test_assemble_rejects_non_integer_vertex_index(tmp_path, index):
    mesh = tmp_path / "mesh.json"
    data = tmp_path / "data.json"
    mesh.write_text(json.dumps({"vertices": [["0/1", "0/1"], ["1/1", "0/1"], ["0/1", "1/1"]],
                                "triangles": [[0, 1, index]]}))
    data.write_text(json.dumps({"vertex_jets": {}, "edge_data": {}}))
    r = run_cli(["assemble", "--mesh", str(mesh), "--data", str(data)], expect=2)
    assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr


@pytest.mark.parametrize("vertex", [["0/1", "0/1", "0/1"], 5, None])
def test_assemble_rejects_a_vertex_that_is_not_a_pair(tmp_path, vertex):
    """A mesh vertex that is not a pair of numbers is a ParseError (exit 2)."""
    mesh, data = tmp_path / "mesh.json", tmp_path / "data.json"
    mesh.write_text(json.dumps({"vertices": [vertex, ["1/1", "0/1"], ["0/1", "1/1"]],
                                "triangles": [[0, 1, 2]]}))
    data.write_text(json.dumps({"vertex_jets": {}, "edge_data": {}}))
    r = run_cli(["assemble", "--mesh", str(mesh), "--data", str(data)], expect=2)
    assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr


@pytest.mark.parametrize("key", ["vertex_jets", "edge_data"])
def test_assemble_rejects_hermite_data_given_as_a_list(tmp_path, key):
    """Jets and edge data are objects keyed by vertex and edge; either one
    given as a JSON list is a ParseError (exit 2), not a traceback."""
    mesh, data = tmp_path / "mesh.json", tmp_path / "data.json"
    mesh.write_text(json.dumps({"vertices": [["0/1", "0/1"], ["1/1", "0/1"], ["0/1", "1/1"]],
                                "triangles": [[0, 1, 2]]}))
    obj = {"vertex_jets": {str(v): ["1/2"] * 10 for v in range(3)},
           "edge_data": {e: ["1/4"] * 3 for e in ("0-1", "0-2", "1-2")}}
    obj[key] = list(obj[key].values())
    data.write_text(json.dumps(obj))
    r = run_cli(["assemble", "--mesh", str(mesh), "--data", str(data)], expect=2)
    assert r.stderr.startswith("error: malformed interpolation data: ") and not r.stdout


_small_rational = st.fractions(-4, 4, max_denominator=6)


def frame_normal(gs, t, edge):
    """Frame of triangle t re-ordered so the shared edge is its [v1, v2]."""
    from ps12splines.geometry import make_frame
    a, b = edge
    opp = next(i for i in gs.tri.triangles[t] if i not in edge)
    return make_frame(gs.tri.vertices[a], gs.tri.vertices[b], gs.tri.vertices[opp])


def _normal_form_coeffs(gs, t, edge):
    """Coefficient vector of triangle t re-expressed on the normal-form frame.

    A basis is a union of S3 orbits with weights constant on each orbit, so
    relabelling the corners by sigma sends S[K] to S[sigma(K)]: the
    coefficients are only permuted.
    """
    from ps12splines.geometry import s3_apply_multiset
    from ps12splines.marsden_catalog import catalog
    a, b = edge
    stored = gs.tri.triangles[t]
    opp = next(i for i in stored if i not in edge)
    sigma = tuple((a, b, opp).index(v) + 1 for v in stored)
    spec = catalog(gs.basis)
    out = [None] * len(spec.elements)
    for el, c in zip(spec.elements, gs.coeffs[t]):
        out[spec.index_of(s3_apply_multiset(sigma, el.multiset))] = c
    return tuple(out)


@settings(max_examples=8, deadline=None)
@given(corners=st.tuples(*[st.tuples(_small_rational, _small_rational)] * 3),
       basis=st.sampled_from("abcdef"), edge=st.integers(0, 2), seed=st.integers(0, 99))
def test_normal_form_coeffs_permute_like_reinterpolation(corners, basis, edge, seed):
    """Re-expressing a triangle's spline on the frame (a, b, opp) permutes its
    coefficients; the reference evaluates the spline at the domain points of
    the new frame and interpolates again.  All six stored corner orders."""
    from itertools import permutations
    from ps12splines.assembly import GlobalSpline, triangulation
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
    """No command imports numpy, on lattices of any size, and only search
    imports basis_search: in a fresh interpreter, table export and exact and
    float eval and sample (at grid 200 too, 20 301 points) leave numpy,
    basis_search and assembly unloaded; nodal, exact assembly, export-obj of
    a spline with its control net and of the assembled global spline, and of
    the hexagon demo at grid 90 (6 x 4 186 points) leave numpy and
    basis_search unloaded."""
    from ps12splines.assembly import triangulation
    from ps12splines.serialize import triangulation_to_dict
    spline, mesh, data, glob, hexagon = (str(tmp_path / n) for n in (
        "s.json", "mesh.json", "data.json", "g.json", "hexagon.json"))
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
    light = [["tables", "dims"],
             ["tables", "dual"],
             ["eval", "--spline", spline, "--point", "1/3", "1/5"],
             ["eval", "--spline", spline, "--point", "0.3", "0.2", "--layer", "float"],
             ["sample", "--spline", spline, "--grid", "8"],
             ["sample", "--spline", spline, "--grid", "200"],
             ["sample", "--spline", spline, "--grid", "2", "--layer", "exact"]]
    rest = [["nodal", "--out", hexagon],
            ["export-obj", "--spline", spline, "--grid", "8", "--control-mesh", "--out", os.devnull],
            ["export-obj", "--global", hexagon, "--grid", "90", "--out", os.devnull]]
    runs = ([(args + ["--out", os.devnull], ["numpy", "ps12splines.basis_search",
                                              "ps12splines.assembly"]) for args in light] +
            [(args, ["numpy", "ps12splines.basis_search"]) for args in rest] +
            [(["assemble", "--mesh", mesh, "--data", data, "--out", glob],
              ["numpy", "ps12splines.basis_search"]),
             (["export-obj", "--global", glob, "--grid", "8", "--out", os.devnull],
              ["numpy", "ps12splines.basis_search"])])
    code = ("import sys\n"
            "import ps12splines\n"
            "from ps12splines import cli\n"
            f"for args, unloaded in {runs!r}:\n"
            "    assert cli.main(args) == 0, args\n"
            "    loaded = [m for m in unloaded if m in sys.modules]\n"
            "    assert not loaded, f'{loaded} loaded by {args}'\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr[-1500:]


def test_float_sample_and_export_obj_carry_the_bits_of_eval_many(tmp_path):
    """The float layer of sample and export-obj, reading each lattice point
    on its own, has the bits of one eval_many batch on the same lattice: the
    CSV values and the OBJ vertices of a spline and of a global spline."""
    import numpy as np
    from ps12splines.assembly import hexagon_demo
    from ps12splines.cli import _float_lattice, _to_layer
    from ps12splines.serialize import barycentric_lattice
    from ps12splines.spline_fn import eval_many
    rng = random.Random(8)
    n = 7
    assert _float_lattice(n) == [tuple(map(float, b)) for b in barycentric_lattice(n)]
    barys = np.array(_float_lattice(n))
    sp = {"frame": [["1/3", "-2/7"], ["13/5", "1/9"], ["2/11", "17/6"]], "basis": "e",
          "coeffs": [rng.uniform(-10, 10) for _ in range(39)]}
    spline, glob, out = (str(tmp_path / f) for f in ("s.json", "g.json", "out"))
    with open(spline, "w") as fh:
        json.dump(sp, fh)
    want = [v.hex() for v in eval_many(_to_layer(spline_from_dict(sp), "float"), barys).tolist()]
    assert main(["sample", "--spline", spline, "--grid", str(n), "--out", out]) == 0
    with open(out) as fh:
        assert [float(line.split(",")[2]).hex() for line in fh.read().splitlines()[1:]] == want
    assert main(["export-obj", "--spline", spline, "--grid", str(n), "--out", out]) == 0
    with open(out) as fh:
        assert [float(line.split()[3]).hex() for line in fh if line.startswith("v ")] == want
    gs = hexagon_demo()
    with open(glob, "w") as fh:
        fh.write(dumps(global_spline_to_dict(gs)))
    want = [v.hex() for t in range(len(gs.tri.triangles))
            for v in eval_many(_to_layer(gs.spline(t), "float"), barys).tolist()]
    assert main(["export-obj", "--global", glob, "--grid", str(n), "--out", out]) == 0
    with open(out) as fh:
        assert [float(line.split()[3]).hex() for line in fh if line.startswith("v ")] == want


@pytest.mark.parametrize("command", ["eval", "sample", "export-obj"])
def test_numbers_beyond_the_float_range_are_domain_errors(tmp_path, command):
    """A number that has no double, in the point, a coefficient or a frame
    corner, is a DomainError naming it to six digits (exit 1) in the float
    layer, not an OverflowError with a traceback; 1e5000 too, whose integer
    is too long for str."""
    sp = {"frame": [["0/1", "0/1"], ["1/1", "0/1"], ["0/1", "1/1"]],
          "basis": "c", "coeffs": ["1/3"] * 39}
    path = str(tmp_path / "s.json")
    runs = {"eval": [("point", None, ["--point", "BIG", "0", "--layer", "float"],
                      "point coordinate"),
                     ("coeffs", 5, ["--point", "0.25", "0.25", "--layer", "float"],
                      "coefficient 5")],
            "sample": [("coeffs", 38, [], "coefficient 38"), ("frame", 2, [], "frame coordinate")],
            "export-obj": [("frame", 1, [], "frame coordinate"),
                           ("coeffs", 0, ["--control-mesh"], "coefficient 0")]}[command]
    for big, about in [("1e400", "1E+400"), ("-12345678e4993", "-1.23457E+5000")]:
        for field, index, args, name in runs:
            data = json.loads(json.dumps(sp))
            value, text = big, about
            if field == "coeffs":
                data["coeffs"][index] = value
            elif field == "frame":
                data["frame"][index][0] = value
            else:  # on the command line a leading "-" would read as an option
                value, text = big.lstrip("-"), about.lstrip("-")
            with open(path, "w") as fh:
                json.dump(data, fh)
            r = run_cli([command, "--spline", path, *(value if a == "BIG" else a for a in args)],
                        expect=1)
            assert r.stderr == f"error: {name} of about {text} is beyond the float range\n"


UNIT_SPLINE = {"frame": [["0/1", "0/1"], ["1/1", "0/1"], ["0/1", "1/1"]],
               "basis": "c", "coeffs": ["1/7"] * 39}


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_json_numbers_are_parse_errors(tmp_path, number):
    """json reads NaN, Infinity and 1e400 as non-finite floats.  As a spline
    coefficient or a Hermite data value they are a ParseError (exit 2), not
    data that sample would write as nan and inf rows."""
    spline = tmp_path / "s.json"
    spline.write_text(json.dumps(UNIT_SPLINE).replace('"1/7"', number, 1))
    r = run_cli(["sample", "--spline", str(spline), "--grid", "2"], expect=2)
    assert r.stderr.startswith("error: not a finite number: ") and not r.stdout
    mesh, data = tmp_path / "mesh.json", tmp_path / "data.json"
    mesh.write_text(json.dumps({"vertices": [["0/1", "0/1"], ["1/1", "0/1"], ["0/1", "1/1"]],
                                "triangles": [[0, 1, 2]]}))
    jets = {str(v): [0.5] * 10 for v in range(3)}
    data.write_text(json.dumps({"vertex_jets": jets, "edge_data": {
        e: [0.25] * 3 for e in ("0-1", "0-2", "1-2")}}).replace("0.25", number, 1))
    r = run_cli(["assemble", "--mesh", str(mesh), "--data", str(data)], expect=2)
    assert r.stderr.startswith("error: ") and "not a finite number: " in r.stderr
    assert not r.stdout


def test_exact_numbers_too_long_to_write_are_domain_errors(tmp_path):
    """With every coefficient 1e5000 the exact value has more digits than
    Python converts to a string: exact eval names it to six digits (exit 1)
    instead of ending in a ValueError traceback, and exact sample, which
    writes doubles, says it is beyond the float range, as it does for a
    frame corner that large."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(dict(UNIT_SPLINE, coeffs=["1e5000"] * 39)))
    r = run_cli(["eval", "--spline", str(path), "--point", "1/5", "1/5"], expect=1)
    assert r.stderr == "error: the exact value of about 1E+5000 has too many digits to write\n"
    r = run_cli(["sample", "--spline", str(path), "--grid", "2", "--layer", "exact"], expect=1)
    assert r.stderr == "error: value of about 1E+5000 is beyond the float range\n"
    path.write_text(json.dumps(dict(UNIT_SPLINE, frame=[["0/1", "0/1"], ["1e5000", "0/1"],
                                                        ["0/1", "1/1"]])))
    r = run_cli(["sample", "--spline", str(path), "--grid", "2", "--layer", "exact"], expect=1)
    assert r.stderr == "error: point coordinate of about 5E+4999 is beyond the float range\n"


@pytest.mark.parametrize("exponent", [400, 5000])
def test_exact_point_far_outside_names_its_barycentrics_to_six_digits(tmp_path, exponent):
    """At x = 1e5000 the exact barycentrics have more digits than Python
    converts to a string, and at 1e400 about 400 each: the error names them
    to six digits (exit 1), not in a ValueError traceback or an 800-digit line."""
    path = tmp_path / "s.json"
    path.write_text(json.dumps(UNIT_SPLINE))
    r = run_cli(["eval", "--spline", str(path), "--point", f"1e{exponent}", "0"], expect=1)
    assert r.stderr == (f"error: point with barycentric coordinates (-1E+{exponent}, "
                        f"1E+{exponent}, 0) outside the macrotriangle\n")
