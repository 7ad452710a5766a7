"""Exact matrices and fraction-free linear algebra.

Matrix is a thin immutable wrapper around a tuple of row tuples of
Fraction entries.

det_exact, bordered_minors and solve_exact clear denominators row by
row and then run the fraction-free Bareiss elimination on integers, so
every intermediate value is a minor of the scaled matrix and coefficient
growth stays polynomial.  Without row swaps the k-th pivot is the
leading minor of size k + 1, and every entry of a row past the pivot
columns it has been through is the same minor with its last row and
last column swapped for that entry's row and column.  bordered_minors
reads off one elimination the leading minors, each row's border
minors, the minors bordered by two border columns at once (Sylvester's
2 x 2 identity on two rows' border entries, E. H. Bareiss, Math. Comp.
22, 1968) and the minors of an extra row that rides along and never
pivots.  solve_exact back-substitutes with Fractions and verifies the
candidate solution by substitution before returning it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
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


def _bareiss(rows: list[list[int]], n: int, swap: bool,
             before=None) -> tuple[list, int]:
    """Fraction-free forward elimination on the first n columns, in place.

    Returns the pivots and the sign of the row swaps made.  A zero pivot
    that `swap` may not, or cannot, trade for a nonzero entry below it
    is the last pivot returned: the leading block of its size is
    singular, and the elimination stops there.  Rows past the first n
    are eliminated and never pivot.  `before`, when given, is called as
    before(k, prev) once row k holds the k-th pivot and before step k
    changes the rows below it, prev being the pivot of step k - 1 (1 at
    k = 0).
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
        if before is not None:
            before(k, prev)
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


def bordered_minors(m: Matrix, borders: int, extra: Sequence | None = None
                    ) -> tuple[tuple, tuple, tuple, tuple]:
    """Leading minors of an n x (n + borders) matrix, and the minors
    bordered by its border columns and by an extra row, from one
    elimination of its leading n x n block.

    Returns (minors, border, pair, top):
      minors[k] = det m[0:k, 0:k] for k = 0..n;
      border[k][c] is the determinant of rows 0..k of m, in columns
        0..k-1 and then border column n + c, for k = 0..n-1;
      pair[k] holds, for each pair c < d of border columns in the order
        of itertools.combinations, the determinant of rows 0..k+1 in
        columns 0..k-1 and then border columns n + c and n + d, for
        k = 0..n-2;
      top[k] is the determinant of rows 0..k-1 of m and then the row
        `extra` of n entries, in columns 0..k, for k = 0..n-1 (empty
        when no extra row is given).
    Bareiss elimination with no row swaps leaves row k's pivot and
    border entries in row k, and column k of the extra row, which is
    eliminated and never pivots, once step k - 1 is made.  Just before
    step k changes row k + 1, rows k and k + 1 hold their border
    entries at stage k, and Sylvester's identity gives pair[k] as the
    2 x 2 determinant of those entries over the pivot of step k - 1.
    Each value is over the product of the scales of its rows.  A zero
    pivot makes that minor 0 and stops the elimination; each later
    minor is then det_exact of its own block.  With no borders and no
    extra row this is the leading-minor sequence.
    """
    n = m.nrows
    if n and m.ncols != n + borders:
        raise NonSquareError("leading block of a bordered matrix not square")
    if extra is not None and len(extra) != n:
        raise ValueError("extra row length is not the leading block's")
    rows, scales = _integer_rows(m)
    if extra is not None:
        top_ints, top_scale = over_common_denominator(extra)
        rows.append(top_ints)
    cols = list(combinations(range(n, n + borders), 2))
    pair_ints = []

    def read_pairs(k, prev):
        if k + 1 < n:
            a, b = rows[k], rows[k + 1]
            pair_ints.append([(a[c] * b[d] - a[d] * b[c]) // prev
                              for c, d in cols])

    pivots, _ = _bareiss(rows, n, swap=False, before=read_pairs)
    minors, border, pair, top, scale = [Fraction(1)], [], [], [], 1
    for k, pivot in enumerate(pivots):
        if extra is not None:
            top.append(Fraction(rows[n][k], scale * top_scale))
        scale *= scales[k]
        minors.append(Fraction(pivot, scale))
        border.append(tuple(Fraction(e, scale) for e in rows[k][n:]))
        if k < len(pair_ints):
            pair.append(tuple(Fraction(e, scale * scales[k + 1])
                              for e in pair_ints[k]))
    block = m.rows
    for k in range(len(pivots), n):
        minors.append(det_exact(Matrix([r[:k + 1] for r in block[:k + 1]])))
        border.append(tuple(det_exact(Matrix([r[:k] + (r[n + c],)
                                              for r in block[:k + 1]]))
                            for c in range(borders)))
        if extra is not None:
            top.append(det_exact(Matrix([r[:k + 1] for r in block[:k]]
                                        + [extra[:k + 1]])))
    for k in range(len(pair), n - 1):
        pair.append(tuple(det_exact(Matrix([r[:k] + (r[c], r[d])
                                            for r in block[:k + 2]]))
                          for c, d in cols))
    return tuple(minors), tuple(border), tuple(pair), tuple(top)


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
