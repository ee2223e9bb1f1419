import hashlib
import random
import time
from collections import Counter
from fractions import Fraction as F
from itertools import product
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import rational_points
from knot_oracles import hull_area, restrict_to_edge
from tripoly import TriPoly
from ps12splines import basis_search
from ps12splines.basis_search import (
    BASIS_CLASS_CONTENT,
    CLASS_REPRESENTATIVES,
    _SHORTHAND_FORMS,
    _divide,
    candidate_has_full_rank,
    compute_dual_polys,
    compute_weights,
    domain_point,
    enumerate_admissible,
    enumerate_candidates,
    filter_pipeline,
    split_linear_factors,
)
from ps12splines.dual_functionals import build_lambda, lambda_vector
from ps12splines.errors import (DimensionMismatch, DomainError, PS12Error, SingularSystem,
                               SymmetryViolated)
from ps12splines.geometry import EDGES, FACES, INTERIOR_LINES, VERTEX_BARY, reference_frame
from ps12splines.linalg import _integer_rows, append_row, bareiss, pivot_columns, solve
from ps12splines.marsden_catalog import catalog
from ps12splines.serialize import PIPELINE_STAGES
from ps12splines.simplex_spline import (
    active_indices,
    bernstein_exponents,
    eval_simplex,
    knots,
    per_face_bernstein,
    smoothness_order,
)


def test_twenty_classes_with_expected_sizes():
    classes = enumerate_admissible()
    assert len(classes) == 20
    sizes = {c.label: c.size for c in classes}
    assert {l for l, s in sizes.items() if s == 3} == set("aghilno")
    assert {l for l, s in sizes.items() if s == 6} == set("bcdefjkmpqrst")
    assert sum(c.size for c in classes) == 99
    for c in classes:
        assert knots(CLASS_REPRESENTATIVES[c.label]) in c.members


def test_admissible_splines_are_those_of_the_definitions():
    """The 99 members of the 20 classes are exactly the quintic knot vectors
    on v1..v6 with a nondegenerate support, smoothness order at least 3
    across every interior line that carries two distinct knots, and at most
    one B-spline term in the restriction to every macro edge, where a
    restriction that raises DomainError rejects.  The restriction expands
    through knot_oracles.expand_window, not through the search's own rule."""
    frame = reference_frame()

    def admissible(K):
        if hull_area(active_indices(K)) == 0:
            return False
        if any(smoothness_order(K, line) < 3 for line in INTERIOR_LINES
               if sum(1 for i in line if K[i - 1]) >= 2):
            return False
        try:
            return all(len(restrict_to_edge(frame, K, e).terms) <= 1 for e in EDGES)
        except DomainError:
            return False

    vectors = [K + (0,) * 4 for K in product(range(9), repeat=6) if sum(K) == 8]
    assert len(vectors) == 1287
    members = {K for cls in enumerate_admissible() for K in cls.members}
    assert len(members) == 99
    assert {K for K in vectors if admissible(K)} == members


def test_candidate_count_and_shape():
    cands = enumerate_candidates()
    assert len(cands) == 3648
    seen = set()
    for c in cands[::97]:
        assert len(c.multisets) == 39
        assert len(set(c.multisets)) == 39
        assert c.multisets not in seen
        seen.add(c.multisets)
    # every candidate is closed under the symmetry action (built from orbits)
    from ps12splines.geometry import S3_ELEMENTS, s3_apply_multiset
    c = cands[123]
    for sigma in S3_ELEMENTS:
        assert sorted(s3_apply_multiset(sigma, K) for K in c.multisets) == sorted(c.multisets)


def test_candidate_order_and_multisets_are_pinned():
    """The 3648 candidates come in one fixed order of their class labels,
    and each one's multisets are the sorted members of its classes."""
    cands = enumerate_candidates()
    lines = "\n".join("".join(c.boundary_labels) + "|" + "".join(c.interior_labels)
                      for c in cands)
    assert hashlib.sha256(lines.encode()).hexdigest() == \
        "c7daa508f353af87be651e9b519a52f2ac79784bf418d3bb055c02b3fdaa9d8b"
    members = {cls.label: cls.members for cls in enumerate_admissible()}
    for c in cands:
        assert c.multisets == tuple(sorted(K for lab in c.labels for K in members[lab]))


def test_weights_of_basis_c_match_catalog():
    spec = catalog("c")
    w = compute_weights(spec.multisets)
    assert w == spec.weights
    assert w[spec.multisets.index(knots("600101"))] == F(1, 4)
    assert w[spec.multisets.index(knots("141110"))] == F(1)


def test_weights_singular_for_non_basis():
    spec = catalog("c")
    dup = list(spec.multisets)
    dup[3] = dup[2]
    with pytest.raises(SingularSystem):
        compute_weights(dup)


def test_weights_reject_input_that_is_not_whole_classes():
    spec = catalog("c")
    outsider = knots(CLASS_REPRESENTATIVES["n"])     # class n is not in basis c
    assert outsider not in spec.multisets
    swapped = list(spec.multisets)
    swapped[3] = outsider
    for bad in (swapped, spec.multisets[:38], list(spec.multisets) + [outsider]):
        with pytest.raises(DomainError):
            compute_weights(bad)


def _bareiss_full_rank(cand) -> bool:
    """Reference: fraction-free elimination of the candidate's 39 lambda rows."""
    rows, _ = _integer_rows([lambda_vector(K) for K in cand.multisets])
    return bareiss(rows)[1] != 0


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 3647))
def test_block_rank_agrees_with_bareiss(i):
    cand = enumerate_candidates()[i]
    assert candidate_has_full_rank(cand) == _bareiss_full_rank(cand)


def _weights_by_collocation(cand) -> tuple:
    """Reference: the 39x39 solve sum_i w_i lambda(Q_i) = lambda(1), with
    lambda(1) read off the functionals (1 for a value, 0 for a derivative);
    no isotypic block in sight."""
    one = [[int(lam.order == 0)] for lam in build_lambda(reference_frame())]
    A = [list(col) for col in zip(*(lambda_vector(K) for K in cand.multisets))]
    return tuple(x for (x,) in solve(A, one))


def test_trie_weights_match_an_independent_collocation_solve():
    full = [c for c in enumerate_candidates() if candidate_has_full_rank(c)]
    assert len(full) == 1024
    sample = random.Random(16).sample(full, 12)
    sample += [c for c in full if c.labels == BASIS_CLASS_CONTENT["c"]]
    labels = [basis_search._orbit_labels(c.multisets) for c in sample]
    of = basis_search._class_of()
    for c, by_class in zip(sample, basis_search._trie_class_weights(labels)):
        want = _weights_by_collocation(c)
        assert compute_weights(c) == want
        assert tuple(by_class[of[K][0]] for K in c.multisets) == want


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 3647), min_size=1, max_size=60), st.randoms(use_true_random=False))
def test_trie_batch_matches_one_candidate_runs(indices, rnd):
    """The verdicts and weights of a batch do not depend on its order or on
    what else is in it: a shuffled batch with repeats gives those of the
    one-candidate runs."""
    cands = enumerate_candidates()
    batch = [cands[i] for i in indices]
    batch += rnd.sample(batch, rnd.randint(0, len(batch)))
    rnd.shuffle(batch)
    alone = [compute_weights(c) if candidate_has_full_rank(c) else None for c in batch]
    of = basis_search._class_of()
    together = basis_search._trie_class_weights(
        [basis_search._orbit_labels(c.multisets) for c in batch])
    assert [None if w is None else tuple(w[of[K][0]] for K in c.multisets)
            for c, w in zip(batch, together)] == alone
    weights = [w for w in alone if w is not None]
    assert filter_pipeline(candidates=batch, stage="positive").counts == {
        "candidates": len(batch), "full_rank": len(weights),
        "nonnegative": sum(all(x >= 0 for x in w) for w in weights),
        "positive": sum(all(x > 0 for x in w) for w in weights)}


def test_trie_pruning_is_a_proof():
    """The first class whose block row reduces to zero against the rows of
    the classes before it cuts a subtree; every candidate holding those
    classes is singular, by Bareiss on its 39 lambda rows."""
    tables = basis_search._isotypic_blocks()

    def dead_prefix(labels):
        echelons = ([], [], [])
        for k, lab in enumerate(labels):
            rows = tables.rows[lab]
            if any(len(e) + len(r) > d for e, r, d in zip(echelons, rows, tables.dims)):
                return None
            if not all(append_row(e, r, len(r)) for e, rs in zip(echelons, rows) for r in rs):
                return labels[:k + 1]
        return None

    prefixes = {p for c in enumerate_candidates()
                if (p := dead_prefix(basis_search._orbit_labels(c.multisets)))}
    prefix = min(prefixes, key=lambda p: (len(p), p))
    assert prefix == ("a", "b", "i", "k")
    holding = [c for c in enumerate_candidates() if c.labels >= set(prefix)]
    assert len(holding) >= 13
    for c in holding:
        assert not _bareiss_full_rank(c)
        assert not candidate_has_full_rank(c)


def test_weights_singular_for_symmetric_non_basis():
    """A deficient candidate whose trivial block alone is nonsingular: only
    the rank check of the other blocks tells that it is not a basis."""
    cand = next(c for c in enumerate_candidates() if c.labels == frozenset("abdefghm"))
    assert not _bareiss_full_rank(cand)
    tables = basis_search._isotypic_blocks()
    trivial = [list(tables.rows[lab][0][0]) for lab in sorted(cand.labels)]
    assert bareiss(trivial)[1] != 0
    with pytest.raises(SingularSystem):
        compute_weights(cand)


def test_symmetry_premise_check_raises_on_corrupted_row(monkeypatch):
    bad = knots(CLASS_REPRESENTATIVES["d"])

    def corrupted(K):
        row = lambda_vector(K)
        return (row[0] + 1,) + row[1:] if K == bad else row

    basis_search._isotypic_blocks.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(basis_search, "lambda_vector", corrupted)
            with pytest.raises(SymmetryViolated, match="do not permute"):
                basis_search._isotypic_blocks()
        # the constant 1 must be invariant too: perturb one of its values
        one = basis_search._lambda_one_vector()
        monkeypatch.setattr(basis_search, "_lambda_one_vector",
                            lambda: one[:12] + ((1,),) + one[13:])
        with pytest.raises(SymmetryViolated, match="constant 1 do not"):
            basis_search._isotypic_blocks()
    finally:
        basis_search._isotypic_blocks.cache_clear()


def test_quadratic_s_basis_weights_are_area_ratios(ref):
    """Degree-2 cross-check: the partition of unity of the classical
    quadratic basis uses the area of each support over the triangle area."""
    s_basis = ["300101", "030110", "003011", "210101", "021110", "102011",
               "110111", "011111", "101111", "120110", "201101", "012011"]
    pts = rational_points(5, seed=21)
    for p in pts:
        total = F(0)
        for lab in s_basis:
            K = knots(lab)
            w = hull_area(tuple(i + 1 for i in range(10) if K[i])) / ref.area
            total += w * eval_simplex(ref, K, p)
        assert total == 1


def test_dual_polys_reference_entries():
    spec = catalog("c")
    polys = compute_dual_polys(spec.multisets)
    c1, c2, c3 = (TriPoly.variable(i) for i in range(3))
    c4 = (c1 + c2) * F(1, 2)
    c5 = (c2 + c3) * F(1, 2)
    c10 = (c1 + c2 + c3) * F(1, 3)
    i = spec.multisets.index(knots("220211"))
    assert TriPoly(polys[i]) == F(3, 4) * c1 * c2 * c4 * c4 * c10
    spec_f = catalog("f")
    polys_f = compute_dual_polys(spec_f.multisets)
    c8 = (c4 + c5) * F(1, 2)
    i = spec_f.multisets.index(knots("121211"))
    assert TriPoly(polys_f[i]) == F(1, 2) * c1 * c2 * c3 * c4 * c8
    # setting c1 = c2 = c3 = 1 recovers the weights
    for poly, w in zip(polys, spec.weights):
        assert TriPoly(poly).evaluate(1, 1, 1) == w


def test_weights_and_duals_satisfy_per_face_identities():
    """The solved weights and dual polynomials meet the two identities that
    fix them, checked ordinate by ordinate on every face, with no functional
    in sight: sum_i w_i Q_i = 1, and the Marsden identity (beta . c)^5 =
    sum_i P_i(c) Q_i(beta).  On a face with corners of macro-barycentrics
    p_0, p_1, p_2 the latter reads sum_i P_i(c) tab_i[alpha] =
    prod_r (p_r . c)^alpha_r for every Bernstein exponent alpha."""
    ref = reference_frame()
    lin = [TriPoly.linear(b) for b in VERTEX_BARY]
    for bid in "abcdef":
        spec = catalog(bid)
        weights = compute_weights(spec.multisets)
        polys = compute_dual_polys(spec.multisets, weights=weights)
        tabs = [per_face_bernstein(ref, K) for K in spec.multisets]
        for fi, corners in enumerate(FACES):
            for s, alpha in enumerate(bernstein_exponents(5)):
                col = [(t[fi][s], i) for i, t in enumerate(tabs) if t[fi][s]]
                assert sum(q * weights[i] for q, i in col) == 1, (bid, fi, alpha)
                got = TriPoly.zero()
                for q, i in col:
                    got = got + TriPoly(polys[i]) * q
                want = TriPoly.const(1)
                for v, a in zip(corners, alpha):
                    want = want * lin[v - 1] ** a
                assert got == want, (bid, fi, alpha)


def test_domain_point_is_mean_of_dual_points():
    for bid in "abcdef":
        spec = catalog(bid)
        assert domain_point(spec.multisets, spec.weights) == spec.domain_points
    for el in catalog("c").elements:
        mean = tuple(sum(p[i] for p in el.dual_points) / 5 for i in range(3))
        assert mean == el.domain_point


def _gradient_domain_point(w_psi):
    """Reference: the domain point read from a dual product, as the gradient
    at (1, 1, 1) over 5 w, where w is the product's value there."""
    w = sum(w_psi.values())
    return tuple(sum(e[r] * c for e, c in w_psi.items()) / (5 * w)
                 for r in range(3))


def test_domain_point_equals_dual_gradient_on_positive_candidates():
    """On each of the 47 candidates with positive weights, the reproduction
    solve gives the domain points of the dual products' gradients."""
    positive = [(c, w) for c in enumerate_candidates() if candidate_has_full_rank(c)
                for w in (compute_weights(c),) if all(x > 0 for x in w)]
    assert len(positive) == 47
    for c, w in positive:
        polys = compute_dual_polys(c, weights=w)
        assert domain_point(c, w) == tuple(_gradient_domain_point(p) for p in polys)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from("abcdef"), st.permutations(range(39)))
def test_domain_point_follows_a_shuffled_input(bid, perm):
    """The domain points come back in the order of the input multisets."""
    spec = catalog(bid)
    points = domain_point(spec.multisets, spec.weights)
    shuffled = [spec.multisets[i] for i in perm]
    assert domain_point(shuffled, [spec.weights[i] for i in perm]) == \
        tuple(points[i] for i in perm)


def test_domain_point_rejects_malformed_input():
    spec = catalog("c")
    with pytest.raises(DimensionMismatch):
        domain_point(spec.multisets, spec.weights[:-1])
    with pytest.raises(DomainError):
        domain_point(spec.multisets[:-1], spec.weights[:-1])
    other = next(K for cls in enumerate_admissible() for K in cls.members
                 if K not in spec.multisets)
    swapped = spec.multisets[:-1] + (other,)
    with pytest.raises(DomainError):
        domain_point(swapped, spec.weights)


def test_domain_point_residual_check_raises_on_corrupted_row(monkeypatch):
    """A lambda row that no longer fits the others makes the equations left
    out of the 13x13 solve fail."""
    spec = catalog("c")
    bad = spec.multisets[0]

    def corrupted(K):
        row = lambda_vector(K)
        return row[:-1] + (row[-1] + 1,) if K == bad else row

    basis_search._reproduction_columns.cache_clear()
    try:
        monkeypatch.setattr(basis_search, "lambda_vector", corrupted)
        with pytest.raises(SingularSystem, match="left out"):
            domain_point(spec.multisets, spec.weights)
    finally:
        basis_search._reproduction_columns.cache_clear()


def test_reproduction_cache_is_clean_after_corrupted_builds(monkeypatch):
    """The 13 rows of the solve are cached with the columns, so clearing
    that one cache after a corrupted build leaves no trace: a clean solve
    in the same process gives the catalog's points.  A corrupted row that
    moves the pivot rows breaks the 13-dimensional span and is not cached,
    and the block tables read the columns only after the symmetry check."""
    spec = catalog("c")
    clean_rows = basis_search._reproduction_columns()[1]

    def corrupt(bad, i):
        def corrupted(K):
            row = lambda_vector(K)
            return row[:i] + (row[i] + 1,) + row[i + 1:] if K == bad else row
        return corrupted

    basis_search._reproduction_columns.cache_clear()
    basis_search._isotypic_blocks.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(basis_search, "lambda_vector", corrupt(spec.multisets[0], 38))
            with pytest.raises(SymmetryViolated, match="do not permute"):
                basis_search._isotypic_blocks()
        assert domain_point(spec.multisets, spec.weights) == spec.domain_points
        basis_search._reproduction_columns.cache_clear()
        with monkeypatch.context() as m:
            m.setattr(basis_search, "lambda_vector", corrupt(spec.multisets[0], 38))
            with pytest.raises(SingularSystem, match="left out"):
                domain_point(spec.multisets, spec.weights)
        basis_search._reproduction_columns.cache_clear()
        assert domain_point(spec.multisets, spec.weights) == spec.domain_points
        basis_search._reproduction_columns.cache_clear()
        with monkeypatch.context() as m:
            m.setattr(basis_search, "lambda_vector", corrupt(spec.multisets[5], 0))
            with pytest.raises(SymmetryViolated, match="span 14 dimensions"):
                domain_point(spec.multisets, spec.weights)
        assert domain_point(spec.multisets, spec.weights) == spec.domain_points
        assert basis_search._reproduction_columns()[1] == clean_rows
    finally:
        basis_search._reproduction_columns.cache_clear()
        basis_search._isotypic_blocks.cache_clear()


def test_full_pipeline_forms_dual_polys_for_boundary_survivors_only(monkeypatch):
    calls = []
    orig = basis_search.compute_dual_polys

    def counted(*args, **kwargs):
        calls.append(args[0])
        return orig(*args, **kwargs)

    monkeypatch.setattr(basis_search, "compute_dual_polys", counted)
    report = filter_pipeline()
    assert report.counts["boundary_counts"] == 7
    assert len(calls) == 7


def test_survivor_certificate_catches_a_wrong_domain_point(monkeypatch):
    """A domain point that still passes the containment and boundary filters
    but is not the mean of its dual points stops the pipeline."""
    cand = next(c for c in enumerate_candidates()
                if c.labels == BASIS_CLASS_CONTENT["c"])
    orig = basis_search.domain_point

    def shifted(c, w):
        points = list(orig(c, w))
        i = next(i for i, xi in enumerate(points) if min(xi) > F(1, 100))
        x1, x2, x3 = points[i]
        points[i] = (x1 + F(1, 1000), x2 - F(1, 1000), x3)
        return tuple(points)

    monkeypatch.setattr(basis_search, "domain_point", shifted)
    with pytest.raises(SingularSystem, match="mean of its dual points"):
        filter_pipeline(candidates=[cand])


def test_split_linear_factors_reference():
    c1, c2, c3 = (TriPoly.variable(i) for i in range(3))
    c4 = (c1 + c2) * F(1, 2)
    c5 = (c2 + c3) * F(1, 2)
    out = split_linear_factors((c2 ** 3 * c4 * c5).terms)
    assert out.split and out.scalar == 1
    assert sorted(out.forms) == sorted([(0, 1, 0)] * 3 + [(F(1, 2), F(1, 2), 0),
                                                          (0, F(1, 2), F(1, 2))])
    out = split_linear_factors((c1 ** 5).terms)
    assert out.split and out.forms == ((F(1), F(0), F(0)),) * 5


def test_split_ignores_zero_terms():
    """Terms with coefficient 0, of any degree, are not part of the form:
    c1^5 with two of them splits as c1^5, and a form of zero terms only
    is not a quintic."""
    c1 = TriPoly.variable(0)
    out = split_linear_factors({**(c1 ** 5).terms, (0, 5, 0): F(0), (0, 0, 0): F(0)})
    assert out == split_linear_factors((c1 ** 5).terms)
    out = split_linear_factors({(5, 0, 0): F(0)})
    assert not out.split and out.diagnostic == "not a nonzero homogeneous quintic"


def test_split_detects_general_rational_factors():
    # a linear factor outside the ten shorthands still splits
    c1, c2, c3 = (TriPoly.variable(i) for i in range(3))
    L = TriPoly.linear((F(1, 5), F(2, 5), F(2, 5)))
    out = split_linear_factors((c1 ** 2 * c2 * c3 * L).terms)
    assert out.split
    assert (F(1, 5), F(2, 5), F(2, 5)) in out.forms


def test_split_rejects_definite_quadratic():
    """Also a rational factor at infinity: c1^4 (c2 - c3), whose coefficient
    sum is 0, is a product of real forms but has no form of sum 1."""
    c1, c2, c3 = (TriPoly.variable(i) for i in range(3))
    quad = c1 * c1 + c2 * c2 + c3 * c3   # no real linear factors
    out = split_linear_factors((quad * c1 * c2 * c3).terms)
    assert not out.split and "quadratic" in out.diagnostic and out.witness is None
    out = split_linear_factors((c1 ** 4 * (c2 - c3)).terms)
    assert (out.split, out.forms, out.witness) == (False, None, None)
    assert out.diagnostic == "linear factor at infinity: (0, 1, -1)"


@pytest.mark.parametrize("square", [False, True])
def test_split_keeps_rational_forms_of_a_quadratic_remainder(square):
    """c1 c2 c3 L1 L2 and c1 c2 c3 L1^2 leave a quadratic that none of the
    ten shorthand forms divides; its rational factors come back normalized
    to sum 1: L1 = c1 + 2 c2 + 3 c3 and L2 = 2 c1 - c2 + c3.  The quadratic
    c2^2 - 2 c3^2 of c1^3 (c2^2 - 2 c3^2) splits too, but into irrational
    forms, so none come back."""
    c1, c2, c3 = (TriPoly.variable(i) for i in range(3))
    L1, L2 = TriPoly.linear((1, 2, 3)), TriPoly.linear((2, -1, 1))
    out = split_linear_factors((c1 * c2 * c3 * L1 * (L1 if square else L2)).terms)
    l1, l2 = (F(1, 6), F(1, 3), F(1, 2)), (F(1), F(-1, 2), F(1, 2))
    assert out.split and out.scalar == (36 if square else 12)
    assert out.forms == tuple(sorted([(1, 0, 0), (0, 1, 0), (0, 0, 1), l1, l1 if square else l2],
                                     reverse=True))
    out = split_linear_factors((c1 ** 3 * (c2 * c2 - 2 * c3 * c3)).terms)
    assert (out.split, out.scalar, out.forms) == (True, -1, None)
    assert out.diagnostic == "real split with irrational factors"


def test_split_raises_without_a_certificate():
    """c1^3 + c1^2 c2 - 2 c1 c2^2 - c2^3 is irreducible over Q but has the
    three real roots 2 cos(2 pi k / 7): it is a product of real linear forms
    that no rational factoring finds, and no line shows a non-real root."""
    c1, c2, c3 = (TriPoly.variable(i) for i in range(3))
    with pytest.raises(PS12Error):
        cubic = c1 ** 3 + c1 * c1 * c2 - 2 * c1 * c2 * c2 - c2 ** 3
        split_linear_factors((c3 * c3 * cubic).terms)


def test_split_with_a_large_coefficient_ends_at_once():
    """N = 10^18 + 9 in c3^3 (c1^2 + c1 c2 + N c2^2): the quadratic's roots
    on the coordinate lines come from an isqrt of its discriminant, not from
    the divisors of N (trial division to sqrt(N) took minutes), and it is
    rejected; with N (N + 1) it splits into (c1 - N c2)(c1 - (N + 1) c2).
    The cubic analogue c3^2 (c1 + N c2)(c1^2 - 2 c2^2) has no non-real root
    on any line and would need the divisors of 2N: PS12Error, at once,
    while with N = 10^6 + 3 it splits."""
    c1, c2, c3 = (TriPoly.variable(i) for i in range(3))
    n = 10 ** 18 + 9
    t0 = time.perf_counter()
    out = split_linear_factors({(2, 0, 3): 1, (1, 1, 3): 1, (0, 2, 3): n})
    assert not out.split and out.diagnostic.startswith("quadratic factor without a real split")
    out = split_linear_factors((c3 ** 3 * (c1 - n * c2) * (c1 - (n + 1) * c2)).terms)
    assert out.split and out.scalar == n * (n - 1)
    assert sorted(out.forms) == sorted([(0, 0, 1)] * 3 + [(F(1, 1 - n), F(-n, 1 - n), 0),
                                                          (F(-1, n), F(n + 1, n), 0)])
    with pytest.raises(PS12Error, match="no certificate decides"):
        split_linear_factors((c3 ** 2 * (c1 + n * c2) * (c1 * c1 - 2 * c2 * c2)).terms)
    assert time.perf_counter() - t0 < 5
    out = split_linear_factors((c3 ** 2 * (c1 + (10 ** 6 + 3) * c2) * (c1 * c1 - 2 * c2 * c2)).terms)
    assert (out.split, out.forms) == (True, None)


def test_split_is_total_on_products_of_rational_forms():
    """A seeded fuzz of 500 quintics c_i c_j L1 L2 L3 with small rational
    forms L (coefficient sum nonzero): each splits into exactly its five
    forms, normalized to sum 1, whatever the line witnesses and the
    shorthand division leave."""
    rng = random.Random(16)
    c = [TriPoly.variable(k) for k in range(3)]
    for _ in range(500):
        forms = []
        while len(forms) < 3:
            L = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
            if sum(L):
                forms.append(L)
        i, j = rng.randrange(3), rng.randrange(3)
        poly = c[i] * c[j] * TriPoly.linear(forms[0]) * TriPoly.linear(forms[1]) \
            * TriPoly.linear(forms[2])
        units = [tuple(F(int(k == n)) for k in range(3)) for n in (i, j)]
        want = sorted(units + [tuple(x / sum(L) for x in L) for L in forms], reverse=True)
        out = split_linear_factors(poly.terms)
        assert out.split and out.forms == tuple(want), (i, j, forms)
        assert out.scalar == poly.evaluate(1, 1, 1)


def test_split_decides_random_quadratic_remainders():
    """A seeded fuzz of quintics c_i c_j c_k Q with a quadratic Q that the
    shorthand forms mostly leave whole.  Q = L1 L2 and Q = L1^2 (small
    rational forms, coefficient sum nonzero) split into exactly the five
    forms, normalized to sum 1, and the scalar; the definite conics
    L1^2 + L2^2 (+ L3^2) of independent forms reject on the quadratic test;
    L1^2 - k L2^2 with k not a square splits into irrational forms."""
    rng = random.Random(30)
    c = [TriPoly.variable(k) for k in range(3)]

    def forms(n):
        """n linearly independent forms with nonzero coefficient sums."""
        while True:
            Ls = [tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
                  for _ in range(n)]
            if all(map(sum, Ls)) and len(pivot_columns([list(L) for L in Ls])) == n:
                return Ls

    quadratic_remainders = 0
    for _ in range(100):
        ijk = [rng.randrange(3) for _ in range(3)]
        cubic = c[ijk[0]] * c[ijk[1]] * c[ijk[2]]
        units = [tuple(F(int(m == n)) for m in range(3)) for n in ijk]
        L1, L2 = forms(2)
        for pair in ((L1, L2), (L1, L1)):
            poly = cubic * TriPoly.linear(pair[0]) * TriPoly.linear(pair[1])
            quadratic_remainders += _shorthand_remainder(poly.terms).degree() == 2
            want = sorted(units + [tuple(x / sum(L) for x in L) for L in pair], reverse=True)
            out = split_linear_factors(poly.terms)
            assert (out.split, out.forms, out.scalar) == (
                True, tuple(want), poly.evaluate(1, 1, 1)), pair
        squares = [TriPoly.linear(L) ** 2 for L in forms(rng.choice((2, 3)))]
        out = split_linear_factors((sum(squares[1:], squares[0]) * c[0] * c[1] * c[2]).terms)
        assert not out.split and "quadratic" in out.diagnostic and out.witness is None
        k = rng.choice((2, 3, 5, 6, 7))
        poly = cubic * (TriPoly.linear(L1) ** 2 - TriPoly.linear(L2) ** 2 * k)
        out = split_linear_factors(poly.terms)
        assert (out.split, out.forms, out.scalar) == (True, None, poly.evaluate(1, 1, 1))
        assert out.diagnostic == "real split with irrational factors"
    assert quadratic_remainders >= 150



_SMALL = st.integers(-4, 4)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.tuples(_SMALL, _SMALL).filter(any), st.tuples(_SMALL, _SMALL, _SMALL),
       st.tuples(_SMALL, _SMALL, _SMALL), st.sampled_from((2, 3, 5, 6, 7)),
       st.tuples(st.integers(0, 9), st.integers(0, 9)))
@example((0, 1), (1, 0, 0), (0, 1, 0), 2, (0, 0))   # (c2 - c3) c1^2 (c1^2 - 2 c2^2)
def test_split_rejects_a_factor_at_infinity_beside_an_irrational_conic(ab, l1, l2, k, pair):
    """Z (L1^2 - k L2^2) S1 S2, with Z = a c1 + b c2 - (a + b) c3 of
    coefficient sum 0, independent L1 and L2, k not a square and two
    shorthand forms S, is a product of real forms, one of them at infinity:
    it always rejects, quoting Z, however the irrational conic splits."""
    assume(len(pivot_columns([list(l1), list(l2)])) == 2)
    z = (ab[0], ab[1], -ab[0] - ab[1])
    conic = TriPoly.linear(l1) ** 2 - TriPoly.linear(l2) ** 2 * k
    poly = TriPoly.linear(z) * conic * TriPoly.linear(VERTEX_BARY[pair[0]]) \
        * TriPoly.linear(VERTEX_BARY[pair[1]])
    out = split_linear_factors(poly.terms)
    g = gcd(*z)
    quoted = {f"linear factor at infinity: ({', '.join(str(s * x // g) for x in z)})"
              for s in (1, -1)}
    assert (out.split, out.forms) == (False, None) and out.diagnostic in quoted, out


def _shorthand_remainder(poly):
    """A positive multiple of poly divided by every shorthand form that
    divides it, as often as it does."""
    (coefs,), _ = _integer_rows([list(poly.values())])
    rem = dict(zip(poly, coefs))
    for form in _SHORTHAND_FORMS:
        while (quo := _divide(rem, form)) is not None:
            rem = quo
    return TriPoly(rem)


_FORMS = st.tuples(*[st.integers(-9, 9)] * 3).filter(any).map(
    lambda f: tuple(x // gcd(*f) for x in f))


@st.composite
def _integer_forms(draw):
    """A nonzero homogeneous polynomial of degree 0..4 with integer
    coefficients, as a TriPoly."""
    exps = bernstein_exponents(draw(st.integers(0, 4)))
    coefs = draw(st.lists(st.integers(-9, 9), min_size=len(exps), max_size=len(exps)).filter(any))
    return TriPoly(dict(zip(exps, coefs)))


@settings(max_examples=300, deadline=None)
@given(_integer_forms(), _FORMS, st.integers(0, 2), st.integers(1, 9))
def test_divide_is_exact_integer_division(q, form, w, c):
    """_divide(q l, l) = q for a primitive integer linear form l, with q l
    from TriPoly multiplication; adding c x_w^(deg + 1), which l divides
    only if it is a multiple of x_w, makes it return None."""
    def ints(p):
        return {e: int(x) for e, x in p.terms.items()}

    product_ = q * TriPoly.linear(form)
    assert _divide(ints(product_), form) == ints(q)
    if not any(x for v, x in enumerate(form) if v != w):
        w = (w + 1) % 3
    power = tuple(q.degree() + 1 if v == w else 0 for v in range(3))
    assert _divide(ints(product_ + TriPoly({power: c})), form) is None


def test_seventh_candidate_fails_factorization(pipeline_report):
    """The filter keeps 7 candidates before the factorization stage; the one
    that is not among the six survivors, abefilrs, must have a certified
    non-splitting dual product.  Of its 39 products the shorthand forms
    split 24 and leave a linear factor of 3; 6 leave a quadratic without a
    real split, and 6 a cubic with a non-real root on a macro edge, which
    numpy.roots confirms."""
    assert pipeline_report.counts["boundary_counts"] == 7
    # the stage-6 survivor set identifies the failing candidate by content
    cands = [c for c in enumerate_candidates()
             if frozenset(c.labels) == frozenset("abefilrs")]
    assert len(cands) == 1
    c = cands[0]
    w = compute_weights(c)
    polys = compute_dual_polys(c, weights=w)
    verdicts = Counter()
    for poly in polys:
        out = split_linear_factors(poly)
        rem = _shorthand_remainder(poly)
        verdicts[rem.degree(), out.split] += 1
        assert out.split == (out.forms is not None) == (rem.degree() < 2)
        assert (out.witness is not None) == (rem.degree() == 3)
        if out.witness is not None:
            p, q = out.witness
            assert p in VERTEX_BARY[:3] and q in VERTEX_BARY[:3]
            # the cubic on the line through p and q, by interpolation at 4 points
            xs = [0, 1, 2, 3]
            ys = [float(rem.evaluate(*(x * pj + qj for pj, qj in zip(p, q)))) for x in xs]
            roots = np.roots(np.polyfit(xs, ys, 3))
            assert max(abs(roots.imag)) > 1e-3, roots
    assert verdicts == {(0, True): 24, (1, True): 3, (2, False): 6, (3, False): 6}


def test_pipeline_monotone_and_prefixes(pipeline_report):
    counts = list(pipeline_report.counts.values())
    assert counts == sorted(counts, reverse=True)
    assert pipeline_report.counts["nonnegative"] >= pipeline_report.counts["positive"]


@pytest.mark.parametrize("stage", PIPELINE_STAGES)
def test_each_stage_stops_at_the_prefix_of_the_full_counts(stage, pipeline_report):
    """A run stopped at any stage counts the paper's prefix 3648, 1024, 243,
    47, 9, 7, 6 of the full run, and only the last stage has survivors."""
    report = filter_pipeline(stage=stage)
    prefix = PIPELINE_STAGES[:PIPELINE_STAGES.index(stage) + 1]
    assert report.stage == stage
    assert report.counts == dict(zip(prefix, (3648, 1024, 243, 47, 9, 7, 6)))
    assert report.counts == {s: pipeline_report.counts[s] for s in prefix}
    if stage == "linear_factors":
        assert report.survivors == pipeline_report.survivors
    else:
        assert report.survivors == []


def test_survivor_weights_positive_and_identified(pipeline_report):
    assert [s.basis_id for s in pipeline_report.survivors] == list("abcdef")
    for s in pipeline_report.survivors:
        assert all(w > 0 for w in s.weights)
        assert frozenset(s.labels) == BASIS_CLASS_CONTENT[s.basis_id]
