"""Exact matrices and fraction-free linear algebra.

Matrix is a thin immutable wrapper around a tuple of row tuples of
Fraction entries.

det_exact and solve_exact clear denominators row by row and then run the
fraction-free Bareiss elimination on integers, so every intermediate
value is a minor of the scaled matrix and coefficient growth stays
polynomial.  solve_exact back-substitutes with Fractions and verifies
the candidate solution by substitution before returning it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from ..errors import NonSquareError, SingularMatrixError


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
    returns the rows and the product of the scales."""
    out = []
    total = 1
    for i, row in enumerate(m.rows):
        entries = list(row) + ([rhs[i]] if rhs is not None else [])
        scale = lcm(*(e.denominator for e in entries)) if entries else 1
        total *= scale
        out.append([int(e * scale) for e in entries])
    return out, total


def _bareiss(rows: list[list[int]], n: int) -> int:
    """Fraction-free forward elimination on the first n columns, in place.

    Returns the sign of the row swaps made, or 0 when a pivot column runs
    out of nonzero entries (the leading n x n block is singular).
    """
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if rows[r][k] != 0), None)
            if pivot is None:
                return 0
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, len(rows[i])):
                rows[i][j] = (rows[i][j] * rows[k][k]
                              - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = rows[k][k]
    return sign


def det_exact(m: Matrix) -> Fraction:
    """Exact determinant of a Fraction matrix via Bareiss elimination."""
    n = m.nrows
    if n != m.ncols:
        raise NonSquareError("determinant of a non-square matrix")
    if n == 0:
        return Fraction(1)
    rows, scale = _integer_rows(m)
    sign = _bareiss(rows, n)
    return Fraction(sign * rows[n - 1][n - 1], scale)


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
    if _bareiss(rows, n) == 0:
        raise SingularMatrixError("zero pivot column during elimination")
    if rows[n - 1][n - 1] == 0:
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
