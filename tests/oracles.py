"""Brute-force oracles the tests check the runtime against.

The oscillatory route to the spectrum: the (n-1) x (n-1) tridiagonal
stiffness matrix and the lower-triangular squared-gap matrix.  Nonzero
eigenvalues of the string are the reciprocals of the eigenvalues of
stiffness^-1 @ gap_gram.  The gap_gram matrix equals the path matrix of
a little planar network, which makes it totally non-negative.

The chain sums M_j by their definition: a sum over all 2^n - 1 index
subsets, which the runtime reads off the curvature polynomial instead.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

from cubicstring.exact import Matrix, det_exact
from cubicstring.string_model import CubicString, validate


def chain_sums_by_subsets(masses: Sequence, xs: Sequence) -> list:
    """The chain sums M_1..M_n over any ordered field (Fraction or float).

    M_j sums, over increasing index subsets of size j, the product of
    the chosen masses times the squared consecutive distances.
    """
    n = len(masses)
    out = []
    for j in range(1, n + 1):
        acc = None
        for subset in combinations(range(n), j):
            term = masses[subset[0]]
            for a, b in zip(subset, subset[1:]):
                term = term * masses[b] * (xs[a] - xs[b]) ** 2
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def oscillatory_matrices(s: CubicString) -> tuple[Matrix, Matrix]:
    """Stiffness tridiagonal and squared-gap lower-triangular matrices.

    Eigenvalues of the string are the reciprocals of the eigenvalues of
    stiffness^-1 @ gap_gram.  Needs at least two masses.
    """
    validate(s)
    if s.n < 2:
        raise ValueError("the oscillatory route needs n >= 2")
    n1 = s.n - 1
    m = s.masses
    stiff = [[Fraction(0)] * n1 for _ in range(n1)]
    for r in range(n1):
        stiff[r][r] = 1 / m[r] + 1 / m[r + 1]
        if r > 0:
            stiff[r][r - 1] = stiff[r - 1][r] = -1 / m[r]
    g = s.gaps
    gram = [[Fraction(0)] * n1 for _ in range(n1)]
    for r in range(n1):
        gram[r][r] = g[r] * g[r]
        for c in range(r):
            gram[r][c] = 2 * g[r] * g[c]
    return Matrix(stiff), Matrix(gram)


def path_matrix(order: int, gaps) -> Matrix:
    """Weight matrix of the gap network, by literal path enumeration.

    Nodes live on four columns; row r of the first column is a source,
    row r of the last a sink.  Edges: source r -> middle-left r with
    weight gap_r; inside the middle-left column r -> r-1 (weight 1);
    exits middle-left r -> middle-right r and r -> r-1 (weight 1); and
    middle-right r -> sink r with weight gap_r.  Entry (i, j) sums the
    weight products over all paths from source i+1 to sink j+1.
    """
    gaps = [Fraction(g) for g in gaps]
    if len(gaps) != order:
        raise ValueError("need one gap per network row")

    # adjacency over nodes (column, row), rows 1..order
    def edges(node):
        col, r = node
        if col == 0:
            yield (1, r), gaps[r - 1]
        elif col == 1:
            if r > 1:
                yield (1, r - 1), Fraction(1)
                yield (2, r - 1), Fraction(1)
            yield (2, r), Fraction(1)
        elif col == 2:
            yield (3, r), gaps[r - 1]

    out = [[Fraction(0)] * order for _ in range(order)]

    def walk(node, weight, source_row):
        col, r = node
        if col == 3:
            out[source_row - 1][r - 1] += weight
            return
        for nxt, w in edges(node):
            walk(nxt, weight * w, source_row)

    for i in range(1, order + 1):
        walk((0, i), Fraction(1), i)
    return Matrix(out)


def is_totally_nonnegative(m: Matrix, cap: int = 6) -> bool:
    """Exhaustively check that every square minor is >= 0."""
    if m.nrows > cap or m.ncols > cap:
        raise ValueError(
            f"minor enumeration capped at {cap}, matrix is {m.nrows}x{m.ncols}")
    for size in range(1, min(m.nrows, m.ncols) + 1):
        for rows in combinations(range(m.nrows), size):
            for cols in combinations(range(m.ncols), size):
                if det_exact(m.submatrix(rows, cols)) < 0:
                    return False
    return True


def float_spectrum_oracle(s: CubicString) -> np.ndarray:
    """Eigenvalues via the float oscillatory route, ascending.

    Solves the generalized problem with numpy and returns reciprocals;
    independent of the Sturm route in both representation and algorithm.
    """
    if s.n == 1:
        return np.array([])
    stiff, gram = oscillatory_matrices(s)
    a = np.array([[float(e) for e in row] for row in stiff.rows])
    b = np.array([[float(e) for e in row] for row in gram.rows])
    eig = np.linalg.eigvals(np.linalg.solve(a, b))
    vals = np.sort(1.0 / eig.real)
    return vals
