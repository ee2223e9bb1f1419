"""The ``cli`` workload: a seeded script of cold ``ps12`` invocations.

Each invocation is a fresh interpreter and they run one after another.  One
operation is a round: the ten invocations of ROUND, timed together, so that
every subcommand counts in the operation time.  Round r draws its own frame,
quintic, points, mesh and restriction order from the seed.  Every exit code
must be 0, and every output is checked against the mathematics: the
polynomial the benchmark interpolated (eval, sample, export-obj), the
quintic whose jets were assembled (assemble, export-obj --global), the
dimension formula at its two ends (tables dims), the dual-point averages
(tables dual), the boundary B-spline structure (tables restrictK) and the
nodal pattern (nodal).

The set-up is a cold ``ps12 tables dims``, repeated SETUP_REPEATS times,
each followed by a cold ``python3 -c "import numpy"``.  Both are mostly
interpreter start and imports (numpy is about two thirds of the ps12
import), whose cost on a shared machine shifts by up to a third between
slow and fast phases; their ratio moves less.  The set-up time is the median
``tables dims`` time scaled by IMPORT_REF_S over the median numpy import
time: the set-up time at the reference speed.  The numpy import runs no
ps12 code, so the scaled time still moves with the library.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction as F
from statistics import median

import refmath

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAUNCHER = os.path.join(HERE, "ps12_launcher.py")

ROUND = ("tables dims", "tables dual", "tables restrict", "nodal", "eval exact",
         "eval float", "sample", "export-obj single", "assemble", "export-obj global")
GRID = 32
SETUP_REPEATS = 5
#: Seconds a cold ``python3 -c "import numpy"`` takes at the reference speed,
#: about its median in a fast phase of the machine BASELINE.md describes.
IMPORT_REF_S = 0.19
INVOCATION_TIMEOUT = 60     # seconds; a hung ps12 is killed and counts as failed


def enc(v: F) -> str:
    return f"{v.numerator}/{v.denominator}"


class CliWork:
    #: Round times are reported unscaled.  The calibration job, timed in this
    #: process between the cold ps12 processes, did not follow their speed:
    #: scaled by it, round times spread three times as much as unscaled ones.
    calibrated = False

    def __init__(self, seed: int, workdir: str, spans_dir: str = None):
        self.seed = seed
        self.workdir = workdir
        self.spans_dir = spans_dir      # traced: the launcher writes spans here
        self.samples = []               # (command name, seconds)
        self.setup_samples = []
        self.calls = 0
        os.makedirs(workdir, exist_ok=True)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def run(self, name: str, args: list) -> tuple:
        """One cold invocation: (seconds, exit code)."""
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        if self.spans_dir is None:
            cmd = [sys.executable, "-m", "ps12splines.cli", *args]
        else:
            spans = os.path.join(self.spans_dir, f"{self.calls:04d}-{name.replace(' ', '_')}.json")
            cmd = [sys.executable, LAUNCHER, spans, *args]
        self.calls += 1
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=self.workdir, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=INVOCATION_TIMEOUT)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(f"ps12 {' '.join(args)} exited {proc.returncode}: "
                             f"{proc.stderr.decode()[-500:]}\n")
        return dt, proc.returncode

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self):
        dims, imports = [], []
        for _ in range(SETUP_REPEATS):
            dt, code = self.run("tables dims", ["tables", "dims", "--out", self.path("dims.json")])
            if code != 0 or not self._dims_ok():
                raise RuntimeError("ps12 tables dims failed during set-up")
            dims.append(dt)
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import numpy"], cwd=self.workdir, check=True,
                           timeout=INVOCATION_TIMEOUT)
            imports.append(time.perf_counter() - t0)
        scale = IMPORT_REF_S / median(imports)
        self.setup_samples = [dt * scale for dt in dims]
        self.setup_record = {"tables_dims_s": dims, "numpy_import_s": imports}

    # -- one round ---------------------------------------------------------

    def op(self, r: int) -> tuple:
        """Round r of the script: (seconds, attempted, failed)."""
        inputs = self._inputs(random.Random(f"cli-{self.seed}-{r}"))
        total, failed = 0.0, 0
        for name in ROUND:
            args, check = self._command(name, inputs)
            dt, code = self.run(name, args)
            self.samples.append((name, dt))
            total += dt
            if not (code == 0 and check()):
                sys.stderr.write(f"check failed: ps12 {' '.join(args)}\n")
                failed += 1
        return total, len(ROUND), failed

    def _inputs(self, rng) -> dict:
        """Seeded inputs: a basis-c spline interpolating a quintic P on a
        rational frame, evaluation points, and a two-triangle mesh carrying
        the jets of a quintic Q."""
        from ps12splines.marsden_catalog import catalog
        from ps12splines.spline_fn import lagrange_interpolate
        from ps12splines.geometry import Point2, make_frame

        corners = refmath.random_frame_corners(rng)
        P = refmath.Poly2.random(rng)
        vals = [P(*refmath.point_at(corners, el.domain_point)) for el in catalog("c").elements]
        s = lagrange_interpolate("c", make_frame(*(Point2(*c) for c in corners)), vals)
        spline = {"frame": [[enc(x), enc(y)] for x, y in corners], "basis": "c",
                  "coeffs": [enc(c) for c in s.coeffs]}
        verts, tris = refmath.perturbed_grid(rng, 1, 1)
        Q = refmath.Poly2.random(rng)
        jets, edges = refmath.hermite_data_of(Q, verts, tris)
        mesh = {"vertices": [[enc(x), enc(y)] for x, y in verts], "triangles": tris}
        data = {"vertex_jets": {str(k): [enc(v) for v in js] for k, js in jets.items()},
                "edge_data": {f"{a}-{b}": [enc(v) for v in vs] for (a, b), vs in edges.items()}}
        for name, obj in (("spline.json", spline), ("mesh.json", mesh), ("data.json", data)):
            with open(self.path(name), "w") as fh:
                json.dump(obj, fh)
        beta = refmath.random_bary(rng)
        fbeta = (rng.random(), rng.random())
        if sum(fbeta) > 1:
            fbeta = (1 - fbeta[0], 1 - fbeta[1])
        fcorners = [(float(x), float(y)) for x, y in corners]
        return {"P": P, "Q": Q, "corners": corners, "coeffs": s.coeffs,
                "exact_point": refmath.point_at(corners, beta),
                "float_point": refmath.point_at(fcorners, fbeta + (1 - sum(fbeta),)),
                "restrict": rng.randint(0, 3), "verts": verts, "tris": tris}

    def _command(self, name: str, inp: dict) -> tuple:
        """The ps12 arguments of one script entry and the check of its output."""
        out = self.path("out." + name.replace(" ", "_"))
        P, bound = inp["P"], refmath.float_bound(inp["coeffs"])
        if name == "tables dims":
            return ["tables", "dims", "--out", self.path("dims.json")], self._dims_ok
        if name == "tables dual":
            return ["tables", "dual", "--out", out], lambda: _dual_ok(out)
        if name == "tables restrict":
            k = inp["restrict"]
            return ["tables", f"restrict{k}", "--out", out], lambda: _restrict_ok(out, k)
        if name == "nodal":
            return ["nodal", "--out", out], lambda: _nodal_ok(out)
        if name == "eval exact":
            x, y = inp["exact_point"]
            return (["eval", "--spline", self.path("spline.json"), "--point", enc(x), enc(y),
                     "--out", out], lambda: _read(out).strip() == enc(P(x, y)))
        if name == "eval float":
            x, y = inp["float_point"]
            return (["eval", "--spline", self.path("spline.json"), "--point", repr(x), repr(y),
                     "--layer", "float", "--out", out],
                    lambda: abs(float(_read(out)) - float(P(F(x), F(y)))) <= bound)
        if name == "sample":
            return (["sample", "--spline", self.path("spline.json"), "--grid", str(GRID),
                     "--out", out], lambda: _csv_ok(out, P, bound))
        if name == "export-obj single":
            return (["export-obj", "--spline", self.path("spline.json"), "--grid", str(GRID),
                     "--control-mesh", "--out", out], lambda: _obj_ok(out, P, bound, 1, 39))
        if name == "assemble":
            return (["assemble", "--mesh", self.path("mesh.json"), "--data", self.path("data.json"),
                     "--out", self.path("global.json")],
                    lambda: _global_ok(self.path("global.json"), inp))
        if name == "export-obj global":
            gpath = self.path("global.json")
            return (["export-obj", "--global", gpath, "--grid", str(GRID), "--out", out],
                    lambda: _obj_ok(out, inp["Q"], _global_bound(gpath), len(inp["tris"]), 0))
        raise ValueError(name)

    def _dims_ok(self) -> bool:
        grid = json.loads(_read(self.path("dims.json")))
        for d in range(10):
            row = grid[f"degree {d}"]
            poly = (d + 1) * (d + 2) // 2
            # C^d splines are the global polynomials; C^-1 ones are 12 free pieces
            if row[f"C{d}"] != poly or row["C-1"] != 12 * poly:
                return False
        return grid["degree 5"]["C3"] == 39

    def record(self) -> dict:
        return {"round": list(ROUND), "grid": GRID, "setup_repeats": SETUP_REPEATS,
                "import_ref_s": IMPORT_REF_S, **self.setup_record}


def _num(v):
    """A number as the CLI writes it: "p/q" strings exact, JSON numbers float."""
    return F(v) if isinstance(v, str) else float(v)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _dual_ok(path: str) -> bool:
    """Six bases of 39 elements with positive weights, each domain point the
    average of its five dual points."""
    table = json.loads(_read(path))
    if sorted(table) != list("abcdef"):
        return False
    for spec in table.values():
        if len(spec["elements"]) != 39:
            return False
        for el in spec["elements"]:
            duals = [[F(x) for x in p] for p in el["dual_points"]]
            mean = [sum(p[k] for p in duals) / 5 for k in range(3)]
            if F(el["weight"]) <= 0 or [F(x) for x in el["domain_point"]] != mean:
                return False
    return True


def _restrict_ok(path: str, k: int) -> bool:
    """Order-k restrictions onto the edge [v1, v2]: only the 25 elements that
    touch the edge appear, in terms of degree-(5-k) B-splines with
    coefficient polynomials of degree k; the values (k = 0) are the eight
    boundary B-splines, one element each."""
    table = json.loads(_read(path))
    if len(table) != 39:
        return False
    used = []
    for q, row in table.items():
        if row and int(q[1:]) > 25:
            return False
        for bname, poly in row.items():
            if not bname.endswith(f"^{5 - k}"):
                return False
            if any(sum(map(int, e.split(","))) != k for e in poly):
                return False
            used.append(bname)
    if k == 0:
        return sorted(used) == sorted(f"B{j}^5" for j in range(1, 9))
    return bool(used)


def _nodal_ok(path: str) -> bool:
    """The hexagon demo: the nodal function of the centre is 1 there and 0
    at the six ring vertices."""
    from ps12splines.assembly import GlobalSpline, triangulation
    from ps12splines.spline_fn import eval_spline

    obj = json.loads(_read(path))
    tri = triangulation([tuple(map(_num, v)) for v in obj["vertices"]], obj["triangles"])
    gs = GlobalSpline(tri, tuple(tuple(map(_num, cs)) for cs in obj["coeffs"]))
    if len(tri.triangles) != 6 or abs(eval_spline(gs.spline(0), tri.vertices[0]) - 1.0) > 1e-9:
        return False
    for t, corners in enumerate(tri.triangles):
        for v in corners:
            if v and abs(eval_spline(gs.spline(t), tri.vertices[v])) > 1e-9:
                return False
    return True


def _csv_ok(path: str, P, bound: float) -> bool:
    lines = _read(path).splitlines()
    if lines[0] != "x,y,value" or len(lines) != 1 + (GRID + 1) * (GRID + 2) // 2:
        return False
    for line in lines[1:]:
        x, y, v = (float(t) for t in line.split(","))
        if abs(v - float(P(F(x), F(y)))) > bound:
            return False
    return True


def _obj_ok(path: str, P, bound: float, patches: int, control: int) -> bool:
    """Surface vertices on P within the bound; the control net, if any, has
    one vertex per basis function."""
    per_patch = (GRID + 1) * (GRID + 2) // 2
    verts = [line.split()[1:] for line in _read(path).splitlines() if line.startswith("v ")]
    if len(verts) != patches * per_patch + control:
        return False
    for x, y, z in verts[:patches * per_patch]:
        if abs(float(z) - float(P(F(float(x)), F(float(y))))) > bound:
            return False
    return True


def _global_bound(path: str) -> float:
    coeffs = json.loads(_read(path))["coeffs"]
    return refmath.float_bound(F(c) for cs in coeffs for c in cs)


def _global_ok(path: str, inp: dict) -> bool:
    """The assembled spline reproduces Q exactly at an interior point of each
    triangle."""
    from ps12splines.assembly import GlobalSpline, triangulation
    from ps12splines.geometry import Point2
    from ps12splines.spline_fn import eval_spline

    obj = json.loads(_read(path))
    verts = [tuple(F(x) for x in v) for v in obj["vertices"]]
    if verts != [tuple(v) for v in inp["verts"]]:
        return False
    tri = triangulation(verts, obj["triangles"])
    gs = GlobalSpline(tri, tuple(tuple(F(c) for c in cs) for cs in obj["coeffs"]))
    for t, corners in enumerate(tri.triangles):
        x, y = refmath.point_at([verts[v] for v in corners], (F(1, 3), F(1, 5), F(7, 15)))
        if eval_spline(gs.spline(t), Point2(x, y)) != inp["Q"](x, y):
            return False
    return True
