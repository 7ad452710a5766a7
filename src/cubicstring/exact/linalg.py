"""Exact matrices and fraction-free linear algebra.

Matrix is a thin immutable wrapper around a tuple of row tuples.  Entries
may live in any commutative ring that supports +, -, * (Fraction entries
for numeric work, Polynomial entries for transition matrices); only
det_exact and solve_exact insist on Fraction entries.

det_exact and solve_exact clear denominators row by row and then run the
fraction-free Bareiss elimination on integers, so every intermediate
value is a minor of the scaled matrix and coefficient growth stays
polynomial.  solve_exact back-substitutes with Fractions and verifies
the candidate solution by substitution before returning it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Sequence

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

    @classmethod
    def identity(cls, n: int, one=Fraction(1), zero=Fraction(0)) -> "Matrix":
        return cls(tuple(tuple(one if i == j else zero for j in range(n))
                         for i in range(n)))

    @property
    def rows(self) -> tuple:
        return self._rows

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return len(self._rows[0]) if self._rows else 0

    def entry(self, i: int, j: int):
        return self._rows[i][j]

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self._rows)

    def transpose(self) -> "Matrix":
        return Matrix(tuple(zip(*self._rows))) if self._rows else Matrix(())

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        return Matrix(tuple(tuple(self._rows[i][j] for j in col_idx)
                            for i in row_idx))

    def map(self, fn: Callable) -> "Matrix":
        return Matrix(tuple(tuple(fn(e) for e in r) for r in self._rows))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        cols = other.transpose()._rows
        out = []
        for r in self._rows:
            row = []
            for c in cols:
                acc = r[0] * c[0]
                for a, b in zip(r[1:], c[1:]):
                    acc = acc + a * b
                row.append(acc)
            out.append(tuple(row))
        return Matrix(tuple(out))

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        body = ",\n        ".join(repr(list(r)) for r in self._rows)
        return f"Matrix([{body}])"


def det_cofactor(m: Matrix):
    """Determinant by Laplace expansion.

    Works over any commutative ring; exponential cost, so only used for
    tiny matrices and as an independent cross-check of det_exact.
    """
    n = m.nrows
    if n != m.ncols:
        raise NonSquareError("determinant of a non-square matrix")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return m.entry(0, 0)
    acc = None
    cols = list(range(n))
    for j in range(n):
        minor = m.submatrix(range(1, n), cols[:j] + cols[j + 1:])
        term = m.entry(0, j) * det_cofactor(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


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
