"""Exact dense linear algebra over the rationals.

This is the package's only exact elimination; ``basis_search``,
``assembly``, ``dual_functionals`` and ``spline_fn`` call it.

Matrices are lists of lists of ``int`` or ``Fraction``.  Every routine scales
each row to integers by the lcm of its denominators and runs one fraction-free
(Bareiss 1968) forward elimination, whose divisions are all exact, so no gcd
is taken inside the elimination.  :func:`rank` reads the number of pivots
and :func:`pivot_columns` their columns; :func:`_integer_solve`
back-substitutes in integers and returns the integer solution with the final
pivot d (the determinant up to sign), which :func:`solve` divides once per
entry.  Callers that contract the solution further in integers (the Lagrange
interpolation in ``spline_fn``) keep the pair and divide only at the end.
Right-hand sides of :func:`solve` are rational matrices; :func:`inverse` is
``solve(A, identity)``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch, SingularSystem
from .rational import common_denominator

Matrix = list  # list[list[int | Fraction]]


def identity(n: int) -> Matrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_vec(A: Matrix, x: list) -> list:
    return [sum((a * xv for a, xv in zip(row, x)), start=Fraction(0)) for row in A]


def inf_norm(A: Matrix) -> Fraction:
    return max(sum(abs(x) for x in row) for row in A)


def _integer_rows(A: Matrix) -> tuple[list, list]:
    """Each row scaled by the lcm of its denominators: (integer rows, scales).

    Row scaling keeps the rank and the solutions of a system whose
    right-hand side is scaled with it.
    """
    rows, scales = [], []
    for row in A:
        den, nums = common_denominator(row)
        rows.append(nums)
        scales.append(den)
    return rows, scales


def _eliminate(rows: list, pivot_cols: int, strict: bool) -> tuple[list, int, int]:
    """Fraction-free forward elimination of integer rows, in place.

    Pivots are sought in the first ``pivot_cols`` columns; every column is
    updated, so trailing columns carry an augmented right-hand side.  A
    column without a pivot is skipped, or raises SingularSystem when
    ``strict``.  Returns (pivot columns, sign of the row permutation, last
    pivot); the number of pivot columns is the rank, and the last pivot is
    the determinant of the row-permuted leading block when that block is
    square and of full rank.
    """
    m = len(rows)
    sign = 1
    prev = 1
    r = 0
    cols = []
    for c in range(pivot_cols):
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            if strict:
                raise SingularSystem(f"singular at column {c}")
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        row_r = rows[r]
        prc = row_r[c]
        tail = row_r[c + 1:]
        for i in range(r + 1, m):
            row_i = rows[i]
            ric = row_i[c]
            if ric:
                row_i[c + 1:] = [(a * prc - ric * b) // prev
                                 for a, b in zip(row_i[c + 1:], tail)]
                row_i[c] = 0
            elif prc != prev:
                row_i[c + 1:] = [a * prc // prev for a in row_i[c + 1:]]
        prev = prc
        cols.append(c)
        r += 1
    return cols, sign, prev


def bareiss(rows: list) -> tuple[int, int]:
    """Fraction-free elimination on an integer matrix.

    Returns (rank, det) where det is the determinant when the matrix is
    square and of full rank, else 0.  Input rows are consumed.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    cols, sign, last = _eliminate(rows, n, strict=False)
    r = len(cols)
    return r, (sign * last if (m == n and r == n) else 0)


def _integer_solve(A: Matrix, B: Matrix) -> tuple[int, list]:
    """(d, X'): the solution of A X = B as integers X' = d X over one pivot d.

    d is the last Bareiss pivot, nonzero and possibly negative.  A and B hold
    ints or Fractions.  Raises SingularSystem when A is singular.
    """
    n = len(A)
    if len(B) != n or any(len(a) != n for a in A):
        raise DimensionMismatch("solve needs a square A and one row of B per row of A")
    if n == 0:
        return 1, []
    rows, _ = _integer_rows([list(a) + list(b) for a, b in zip(A, B)])
    d = _eliminate(rows, n, strict=True)[2]
    # U X' = d Y has the integer solution X' = d X (Cramer), so each
    # division by the pivot below is exact
    xs = [None] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        acc = [d * y for y in row[n:]]
        for j in range(i + 1, n):
            u = row[j]
            if u:
                acc = [a - u * x for a, x in zip(acc, xs[j])]
        piv = row[i]
        xs[i] = [a // piv for a in acc]
    return d, xs


def solve(A: Matrix, B: Matrix) -> Matrix:
    """Solve A X = B exactly for the n x m matrix X of Fractions.

    A and B hold ints or Fractions.  Raises SingularSystem when A is
    singular.
    """
    d, xs = _integer_solve(A, B)
    return [[Fraction(x, d) for x in xi] for xi in xs]


def inverse(A: Matrix) -> Matrix:
    return solve(A, identity(len(A)))


def rank(A: Matrix) -> int:
    if not A:
        return 0
    return bareiss(_integer_rows(A)[0])[0]


def pivot_columns(A: Matrix) -> tuple:
    """Columns of the pivots of A's row echelon form, in order.

    They are linearly independent and span A's column space, so the
    restriction of A's rows to them is injective on A's row space.  Applied
    to a transpose, they index a maximal independent subset of the rows,
    the first one found in order.
    """
    if not A:
        return ()
    return tuple(_eliminate(_integer_rows(A)[0], len(A[0]), strict=False)[0])
