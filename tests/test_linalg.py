"""Property tests: the fraction-free solver against plain Gauss-Jordan."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ps12splines.errors import DimensionMismatch, SingularSystem
from ps12splines.linalg import identity, inverse, pivot_columns, solve


def gauss_jordan(A, B):
    """Reference: (rank of A, solution of A X = B or None when singular)."""
    n, m = len(A), len(B[0]) if B else 0
    rows = [[F(v) for v in a] + [F(v) for v in b] for a, b in zip(A, B)]
    r = 0
    for c in range(len(A[0]) if A else 0):
        piv = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        r += 1
    if r < n:
        return r, None
    return r, [row[n:n + m] for row in rows]


rationals = st.builds(F, st.integers(-9, 9), st.integers(1, 6))
entries = st.one_of(st.integers(-5, 5), rationals)


@st.composite
def systems(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, 3))
    A = [[draw(entries) for _ in range(n)] for _ in range(n)]
    B = [[draw(entries) for _ in range(m)] for _ in range(n)]
    return A, B


@st.composite
def singular_systems(draw):
    """A square matrix with one row a rational combination of the others."""
    A, B = draw(systems())
    n = len(A)
    if n == 1:
        A = [[0]]
    else:
        coefs = [draw(rationals) for _ in range(n - 1)]
        A[-1] = [sum((c * row[j] for c, row in zip(coefs, A)), F(0)) for j in range(n)]
    return A, B


def mat_mul(A, B):
    return [[sum((a * b for a, b in zip(row, col)), F(0)) for col in zip(*B)] for row in A]


@settings(max_examples=200, deadline=None)
@given(systems())
def test_solve_and_rank_agree_with_gauss_jordan(system):
    A, B = system
    ref_rank, ref_x = gauss_jordan(A, B)
    assert len(pivot_columns(A)) == ref_rank
    if ref_x is None:
        with pytest.raises(SingularSystem):
            solve(A, B)
    else:
        X = solve(A, B)
        assert X == ref_x
        assert all(isinstance(v, F) for row in X for v in row)
        assert mat_mul(A, X) == [[F(v) for v in row] for row in B]


@settings(max_examples=100, deadline=None)
@given(singular_systems())
def test_singular_input_raises(system):
    A, B = system
    # the pivot columns are independent and keep the rank
    cols = pivot_columns(A)
    assert len(cols) < len(A)
    assert len(cols) == gauss_jordan([[a[c] for c in cols] for a in A], B)[0]
    with pytest.raises(SingularSystem):
        solve(A, B)
    with pytest.raises(SingularSystem):
        inverse(A)


@settings(max_examples=100, deadline=None)
@given(systems(max_n=7))
def test_inverse_times_matrix_is_identity(system):
    A, _ = system
    if gauss_jordan(A, identity(len(A)))[1] is None:
        return
    assert mat_mul(inverse(A), A) == identity(len(A))
    assert mat_mul(A, inverse(A)) == identity(len(A))


def test_solve_rejects_non_square_input():
    with pytest.raises(DimensionMismatch):
        solve([[1, 2]], [[1]])
    with pytest.raises(DimensionMismatch):
        solve([[1, 0], [0, 1]], [[1]])


def test_empty_input():
    assert solve([], []) == []
    assert pivot_columns([]) == ()
