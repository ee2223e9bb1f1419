"""Spans recorded from outside the library.

The tracer replaces public functions, as attributes of the modules that call
them, by wrappers that record one span per call: name, start, end and the
enclosing span.  Spans stay in memory and are written out once, at exit.
Counters (points, triangles, accepted candidates, ...) are recorded by the
same wrappers, at the boundary where the work happens.

Nothing here changes what the library computes: a wrapper calls the original
function with the original arguments and returns its result.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import wraps


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = {}
        self.enabled = True
        self._stack = []

    @contextmanager
    def paused(self):
        """Calls inside the block are not recorded."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def count(self, name: str, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, classify=None, on_call=None):
        """Record a span around every call of ``module.attr``.

        ``classify(args, result)`` may refine the span name (for example
        ``.exact`` or ``.float``); ``on_call(args, result)`` may add counts.
        """
        orig = getattr(module, attr)

        @wraps(orig)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return orig(*args, **kwargs)
            idx = self.begin(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self.end(idx)
            if classify is not None:
                self.spans[idx][0] = name + classify(args, result)
            if on_call is not None:
                on_call(args, result)
            return result

        setattr(module, attr, wrapper)

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def _exactness(args, result) -> str:
    return ".exact" if isinstance(result, Fraction) else ".float"


def install_search(tr: Tracer):
    from ps12splines import basis_search, dual_functionals, simplex_spline

    def weights_done(args, w):
        tr.count("basis_search.compute_weights.nonneg", all(x >= 0 for x in w))
        tr.count("basis_search.compute_weights.positive", all(x > 0 for x in w))

    def rank_done(args, ok):
        tr.count("basis_search.candidate_has_full_rank.accept", bool(ok))

    def split_done(args, fact):
        tr.count("basis_search.split_linear_factors.split", bool(fact.split))

    # Set-up layers.  The search itself reads lambda rows through
    # basis_search's own reference, about 1500 cached look-ups per weight
    # solve, which stays unwrapped so the spans do not swamp the solves.
    tr.wrap(basis_search, "enumerate_candidates", "basis_search.enumerate_candidates")
    tr.wrap(simplex_spline, "per_face_bernstein", "simplex_spline.per_face_bernstein")
    tr.wrap(dual_functionals, "lambda_vector", "dual_functionals.lambda_vector")
    # the search: basis_search looks these names up in its own namespace
    tr.wrap(basis_search, "filter_pipeline", "basis_search.filter_pipeline")
    tr.wrap(basis_search, "candidate_has_full_rank", "basis_search.candidate_has_full_rank",
            on_call=rank_done)
    tr.wrap(basis_search, "bareiss", "linalg.bareiss")
    tr.wrap(basis_search, "compute_weights", "basis_search.compute_weights",
            on_call=weights_done)
    tr.wrap(basis_search, "solve", "linalg.solve")
    tr.wrap(basis_search, "compute_dual_polys", "basis_search.compute_dual_polys")
    tr.wrap(basis_search, "domain_point", "basis_search.domain_point")
    tr.wrap(basis_search, "split_linear_factors", "basis_search.split_linear_factors",
            on_call=split_done)


def install_library(tr: Tracer):
    from ps12splines import assembly, spline_fn

    tr.wrap(spline_fn, "scaled_basis_tables", "spline_fn.scaled_basis_tables")
    tr.wrap(spline_fn, "collocation_at_domain_points", "spline_fn.collocation_at_domain_points")
    tr.wrap(assembly, "edge_restriction_tables", "assembly.edge_restriction_tables")
    tr.wrap(assembly, "nodal_q_coefficients", "assembly.nodal_q_coefficients")
    tr.wrap(spline_fn, "eval_spline", "spline_fn.eval_spline", classify=_exactness)
    tr.wrap(spline_fn, "eval_many", "spline_fn.eval_many",
            on_call=lambda args, out: tr.count("spline_fn.eval_many.points", len(out)))
    tr.wrap(spline_fn, "lagrange_interpolate", "spline_fn.lagrange_interpolate")
    tr.wrap(assembly, "hermite_interpolate", "assembly.hermite_interpolate",
            on_call=lambda args, gs: tr.count("assembly.hermite_interpolate.triangles",
                                              len(gs.tri.triangles)))
    tr.wrap(assembly, "verify_smoothness", "assembly.verify_smoothness")


#: Public functions of the serialize module that the CLI calls.
SERIALIZE_FUNCTIONS = (
    "dumps", "decode_number", "encode_number", "spline_from_dict", "spline_to_dict",
    "triangulation_from_dict", "global_spline_to_dict", "global_spline_from_dict",
    "hermite_data_from_dict", "basis_spec_to_dict", "tri_poly_to_dict",
    "barycentric_lattice", "lattice_triangles", "grid_csv", "obj_surface",
)


def install_cli(tr: Tracer):
    from ps12splines import assembly, serialize, spline_fn

    tr.wrap(spline_fn, "scaled_basis_tables", "spline_fn.scaled_basis_tables")
    tr.wrap(assembly, "hermite_interpolate", "assembly.hermite_interpolate")
    for fn in SERIALIZE_FUNCTIONS:
        tr.wrap(serialize, fn, "serialize." + fn)


INSTALLERS = {"search": install_search, "library": install_library, "cli": install_cli}


# ---------------------------------------------------------------------------
# Reading spans back
# ---------------------------------------------------------------------------

def busy_and_self(spans) -> tuple:
    """Per span name: busy time (calls nested in a span of the same name are
    not counted twice), self time (duration minus the time its child spans
    cover) and number of calls."""
    busy, self_t, calls = {}, {}, {}
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    for i, (name, t0, t1, parent) in enumerate(spans):
        d = t1 - t0
        calls[name] = calls.get(name, 0) + 1
        self_t[name] = self_t.get(name, 0.0) + d - child_time[i]
        p, nested = parent, False
        while p >= 0:
            if spans[p][0] == name:
                nested = True
                break
            p = spans[p][3]
        if not nested:
            busy[name] = busy.get(name, 0.0) + d
    return busy, self_t, calls


def outermost_with_prefix(spans, prefix: str) -> float:
    """Total time in spans whose name starts with prefix and that are not
    nested in another such span."""
    total = 0.0
    for name, t0, t1, parent in spans:
        if not name.startswith(prefix):
            continue
        p = parent
        while p >= 0 and not spans[p][0].startswith(prefix):
            p = spans[p][3]
        if p < 0:
            total += t1 - t0
    return total
