"""Exact matrices and fraction-free linear algebra.

Matrix is a thin immutable wrapper around a tuple of row tuples of
Fraction entries.

det_exact, bordered_minors and solve_exact clear denominators row by
row and then run the fraction-free Bareiss elimination on integers, so
every intermediate value is a minor of the scaled matrix and coefficient
growth stays polynomial.  Without row swaps the k-th pivot is the
leading minor of size k + 1, and the entries row k keeps in the columns
past the eliminated block are the same minor with its last column
swapped for each of them, so bordered_minors reads all of these minors
off one elimination.  solve_exact back-substitutes with Fractions and
verifies the candidate solution by substitution before returning it.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Sequence

from ..errors import NonSquareError, SingularMatrixError
from .rational import over_common_denominator


class Matrix:
    __slots__ = ("_rows",)

    def __init__(self, rows: Sequence[Sequence]):
        rows = tuple(tuple(r) for r in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        self._rows = rows

    @property
    def rows(self) -> tuple:
        return self._rows

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return len(self._rows[0]) if self._rows else 0

    def apply(self, vec: Sequence) -> tuple:
        """Matrix-vector product."""
        if self.ncols != len(vec):
            raise ValueError("shape mismatch in matrix-vector product")
        out = []
        for r in self._rows:
            acc = r[0] * vec[0]
            for a, b in zip(r[1:], vec[1:]):
                acc = acc + a * b
            out.append(acc)
        return tuple(out)


def _integer_rows(m: Matrix, rhs: Sequence[Fraction] | None = None):
    """Scale each row (and its rhs entry) to integers by the row's lcm;
    returns the rows and the scales."""
    out, scales = [], []
    for i, row in enumerate(m.rows):
        ints, scale = over_common_denominator(
            row + ((rhs[i],) if rhs is not None else ()))
        out.append(ints)
        scales.append(scale)
    return out, scales


def _bareiss(rows: list[list[int]], n: int, swap: bool) -> tuple[list, int]:
    """Fraction-free forward elimination on the first n columns, in place.

    Returns the pivots and the sign of the row swaps made.  A zero pivot
    that `swap` may not, or cannot, trade for a nonzero entry below it
    is the last pivot returned: the leading block of its size is
    singular, and the elimination stops there.
    """
    pivots, sign, prev = [], 1, 1
    for k in range(n):
        if rows[k][k] == 0 and swap:
            below = next((r for r in range(k + 1, n) if rows[r][k]), None)
            if below is not None:
                rows[k], rows[below] = rows[below], rows[k]
                sign = -sign
        pivot = rows[k][k]
        pivots.append(pivot)
        if pivot == 0:
            break
        rk = rows[k]
        for ri in rows[k + 1:]:
            rik = ri[k]
            for j in range(k + 1, len(ri)):
                ri[j] = (ri[j] * pivot - rik * rk[j]) // prev
        prev = pivot
    return pivots, sign


def det_exact(m: Matrix) -> Fraction:
    """Exact determinant of a Fraction matrix via Bareiss elimination."""
    n = m.nrows
    if n != m.ncols:
        raise NonSquareError("determinant of a non-square matrix")
    if n == 0:
        return Fraction(1)
    rows, scales = _integer_rows(m)
    pivots, sign = _bareiss(rows, n, swap=True)
    return Fraction(sign * pivots[-1], prod(scales))


def bordered_minors(m: Matrix, borders: int) -> tuple[tuple, tuple]:
    """Leading minors of an n x (n + borders) matrix, and each row's
    border minors, from one elimination of its leading n x n block.

    Returns (minors, border): minors[k] = det m[0:k, 0:k] for k = 0..n,
    and border[k][c] is the determinant of rows 0..k of m, in columns
    0..k-1 and then border column n + c, for k = 0..n-1.  Bareiss
    elimination with no row swaps leaves exactly these values in row k:
    its pivot and its border entries, over the product of the first
    k + 1 row scales.  A zero pivot makes that minor 0 and stops the
    elimination; each later minor and border minor is then det_exact of
    its own block.  With no borders this is the leading-minor sequence.
    """
    n = m.nrows
    if n and m.ncols != n + borders:
        raise NonSquareError("leading block of a bordered matrix not square")
    rows, scales = _integer_rows(m)
    pivots, _ = _bareiss(rows, n, swap=False)
    minors, border, scale = [Fraction(1)], [], 1
    for k, pivot in enumerate(pivots):
        scale *= scales[k]
        minors.append(Fraction(pivot, scale))
        border.append(tuple(Fraction(e, scale) for e in rows[k][n:]))
    for k in range(len(pivots), n):
        block = m.rows[:k + 1]
        minors.append(det_exact(Matrix([r[:k + 1] for r in block])))
        border.append(tuple(det_exact(Matrix([r[:k] + (r[n + c],)
                                              for r in block]))
                            for c in range(borders)))
    return tuple(minors), tuple(border)


def solve_exact(m: Matrix, rhs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Solve m x = rhs exactly; raises SingularMatrixError when singular.

    Bareiss forward elimination on the integer-scaled augmented matrix,
    Fraction back-substitution, then a mandatory residual check.
    """
    n = m.nrows
    if n != m.ncols:
        raise NonSquareError("solve requires a square matrix")
    if len(rhs) != n:
        raise ValueError("right-hand side length mismatch")
    rhs = [Fraction(b) for b in rhs]
    if n == 0:
        return ()
    rows, _ = _integer_rows(m, rhs)
    pivots, _ = _bareiss(rows, n, swap=True)
    if len(pivots) < n:
        raise SingularMatrixError("zero pivot column during elimination")
    if pivots[-1] == 0:
        raise SingularMatrixError("singular system")
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(rows[i][n])
        for j in range(i + 1, n):
            acc -= rows[i][j] * x[j]
        x[i] = acc / rows[i][i]
    if m.apply(x) != tuple(rhs):
        raise SingularMatrixError("back-substitution check failed")
    return tuple(x)
