"""Forward spectral map of the discrete cubic string.

Between masses the wave function of  -phi''' = z m phi  is a quadratic
in x, so crossing the whole support is a product of 3x3 matrices in the
spectral variable z: a polynomial "free" factor per gap and a "jump"
factor per mass.  With the left boundary data fixed, the first column
of the full product carries three polynomials (phi, phi_x, phi_xx):
value, slope and curvature of the wave just right of the support.

Eigenvalues are the roots of the curvature polynomial phi_xx away from
zero; they are positive and simple for positive masses and gaps.  The
two Weyl functions are the ratios phi_x/phi_xx and phi/phi_xx, and
their residues at the eigenvalues are the spectral data used by the
inverse map.

A second, independent route to the same spectrum: the (n-1) x (n-1)
tridiagonal stiffness matrix and the lower-triangular squared-gap
matrix.  Nonzero eigenvalues of the string are the reciprocals of the
eigenvalues of stiffness^-1 @ gap_gram.  The gap_gram matrix equals the
path matrix of a little planar network, which makes it totally
non-negative; both facts are kept as permanent cross-checks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import (
    IdentityViolatedError,
    PrecisionExhaustedError,
    SizeCapExceededError,
    StepsOutOfRangeError,
    TooSmallError,
)
from .exact import (
    Matrix,
    Polynomial,
    RatInterval,
    RootEnclosure,
    cauchy_root_bound,
    eval_interval,
    refine_enclosure,
    sturm_isolate,
)
from .exact.roots import DEFAULT_ISOLATION_WIDTH
from .string_model import CubicString, validate

DEFAULT_PRECISION_BITS = 256


def resolve_precision_bits(requested: int | None = None) -> int:
    """Working precision: `requested` if given, else the environment
    variable CUBICSTRING_PRECISION_BITS, else DEFAULT_PRECISION_BITS.
    Anything but a positive integer is a ValueError."""
    if requested is None:
        requested = int(os.environ.get("CUBICSTRING_PRECISION_BITS",
                                       DEFAULT_PRECISION_BITS))
    if requested < 1:
        raise ValueError(
            f"precision bits must be a positive integer, got {requested}")
    return requested


@dataclass(frozen=True)
class WeylData:
    """Boundary polynomials of a string, progressively enriched with
    eigenvalue enclosures and Weyl-function residues."""

    phi: Polynomial      # boundary value
    phi_x: Polynomial    # boundary slope
    phi_xx: Polynomial   # boundary curvature; eigenvalues are its roots / z
    eigenvalues: tuple[RootEnclosure, ...] | None = None
    w_residues: tuple | None = None  # residues of phi_x/phi_xx (Fraction or RatInterval)
    z_residues: tuple | None = None  # residues of phi/phi_xx

    @property
    def all_exact(self) -> bool:
        return (self.eigenvalues is not None
                and all(e.is_exact for e in self.eigenvalues))


def jump_matrix(mass: Fraction) -> Matrix:
    """Crossing one point mass: curvature jumps by -2 m z times the value."""
    z = Polynomial.x()
    one = Polynomial.one()
    zero = Polynomial.zero()
    return Matrix((
        (one, zero, zero),
        (zero, one, zero),
        (Fraction(-2) * mass * z, zero, one),
    ))


def free_matrix(gap: Fraction) -> Matrix:
    """Free propagation across one gap: integrate the quadratic."""
    one = Polynomial.one()
    zero = Polynomial.zero()
    g = Polynomial.constant(gap)
    half_g2 = Polynomial.constant(gap * gap / 2)
    return Matrix((
        (one, g, half_g2),
        (zero, one, g),
        (zero, zero, one),
    ))


def _factors(s: CubicString) -> list[Matrix]:
    """Factors of the full crossing, leftmost first.

    The full product is jump_n @ free_{n-1} @ jump_{n-1} @ ... @ free_1
    @ jump_1; partial products of a prefix are the approximation chain.
    """
    fs = []
    for i in range(s.n - 1, -1, -1):
        fs.append(jump_matrix(s.masses[i]))
        if i > 0:
            fs.append(free_matrix(s.gaps[i - 1]))
    return fs


def transition(s: CubicString, steps: int) -> Matrix:
    """Product of the first `steps` crossing factors, 1 <= steps <= 2n-1."""
    validate(s)
    if not 1 <= steps <= 2 * s.n - 1:
        raise StepsOutOfRangeError(
            f"steps must lie in 1..{2 * s.n - 1}, got {steps}")
    fs = _factors(s)
    acc = fs[0]
    for f in fs[1:steps]:
        acc = acc @ f
    return acc


def boundary_data(s: CubicString) -> WeylData:
    """Boundary polynomials: first column of the full crossing matrix."""
    full = transition(s, 2 * s.n - 1)
    return WeylData(phi=full.entry(0, 0),
                    phi_x=full.entry(1, 0),
                    phi_xx=full.entry(2, 0))


_J_ROWS = ((0, 0, 1), (0, -1, 0), (1, 0, 0))


def check_automorphism(s: CubicString) -> None:
    """The crossing matrix satisfies S(-z)^T J S(z) J = I with the
    antidiagonal involution J; raises if the exact identity fails."""
    full = transition(s, 2 * s.n - 1)
    j = Matrix(tuple(tuple(Polynomial.constant(e) for e in row) for row in _J_ROWS))
    reflected_t = full.map(lambda p: p.reflected()).transpose()
    prod = reflected_t @ j @ full @ j
    eye = Matrix.identity(3, one=Polynomial.one(), zero=Polynomial.zero())
    if prod != eye:
        raise IdentityViolatedError("crossing matrix broke its symmetry identity")


def eigenvalue_polynomial(wd: WeylData) -> Polynomial:
    """phi_xx / z: its roots are the nonzero eigenvalues."""
    if wd.phi_xx.coefficient(0) != 0:
        raise IdentityViolatedError("curvature polynomial must vanish at z = 0")
    return Polynomial(wd.phi_xx.coefficients[1:])


def spectrum(s: CubicString,
             width: Fraction = DEFAULT_ISOLATION_WIDTH) -> WeylData:
    """Isolate all eigenvalues; exactly n-1 of them, positive and simple."""
    wd = boundary_data(s)
    q = eigenvalue_polynomial(wd)
    if q.degree < 1:
        return replace(wd, eigenvalues=())
    hi = cauchy_root_bound(q)
    roots = sturm_isolate(q, Fraction(0), hi, width=width)
    if len(roots) != s.n - 1:
        raise IdentityViolatedError(
            f"expected {s.n - 1} eigenvalues, isolated {len(roots)}")
    return replace(wd, eigenvalues=tuple(roots))


def _certified_ratio(num: Polynomial, den: Polynomial, box: RatInterval):
    """num/den over an interval, or None when the signs are not settled."""
    den_i = eval_interval(den, box)
    if not den_i.sign_definite():
        return None
    ratio = eval_interval(num, box) / den_i
    return ratio if ratio.sign_definite() else None


def residues(wd: WeylData,
             precision_bits: int = DEFAULT_PRECISION_BITS) -> WeylData:
    """Residues of the two Weyl functions at every eigenvalue.

    Exact rationals at exact eigenvalues; elsewhere sign-certified
    rational intervals, refined as far as 4x the requested precision
    before giving up.
    """
    if wd.eigenvalues is None:
        raise ValueError("run spectrum() before residues()")
    deriv = wd.phi_xx.derivative()
    q = eigenvalue_polynomial(wd)
    w_out, z_out = [], []
    for root in wd.eigenvalues:
        if root.is_exact:
            lam = root.exact
            d = deriv(lam)
            if d == 0:
                raise IdentityViolatedError("multiple eigenvalue in residues")
            w_out.append(wd.phi_x(lam) / d)
            z_out.append(wd.phi(lam) / d)
            continue
        got = None
        box = root
        target = Fraction(1, 2 ** precision_bits)
        for _ in range(3):
            box = refine_enclosure(q, box, target)
            if box.is_exact:
                lam = box.exact
                got = (wd.phi_x(lam) / deriv(lam), wd.phi(lam) / deriv(lam))
                break
            ival = RatInterval(box.lo, box.hi)
            w_i = _certified_ratio(wd.phi_x, deriv, ival)
            z_i = _certified_ratio(wd.phi, deriv, ival)
            if w_i is not None and z_i is not None:
                got = (w_i, z_i)
                break
            target = target * target  # square the precision and retry
        if got is None:
            raise PrecisionExhaustedError(
                f"could not certify residue signs at {precision_bits} bits")
        w_out.append(got[0])
        z_out.append(got[1])
    _check_residue_signs(w_out, z_out)
    if all(isinstance(b, Fraction) for b in w_out) and wd.all_exact:
        _check_residue_relation(wd, w_out, z_out)
    return replace(wd, w_residues=tuple(w_out), z_residues=tuple(z_out))


def _check_residue_signs(w_out, z_out) -> None:
    for b in list(w_out) + list(z_out):
        neg = b < 0 if isinstance(b, Fraction) else b.is_negative()
        if not neg:
            raise IdentityViolatedError("residue failed its negativity law")


def value_residues(lams, bs) -> tuple[Fraction, ...]:
    """Residues c_k of phi/phi_xx that the reflection symmetry of the Weyl
    functions forces from the residues b_k of phi_x/phi_xx,

        c_k = -sum_j b_j b_k / (lam_j + lam_k).
    """
    return tuple(-sum((bj * bk / (lj + lk) for lj, bj in zip(lams, bs)),
                      Fraction(0))
                 for lk, bk in zip(lams, bs))


def _check_residue_relation(wd: WeylData, w_out, z_out) -> None:
    """Exact cross-check: the z-residues are determined by the w-residues."""
    lams = [e.exact for e in wd.eigenvalues]
    if value_residues(lams, w_out) != tuple(z_out):
        raise IdentityViolatedError("z-residue relation failed exactly")


# -- the oscillatory route ----------------------------------------------

def oscillatory_matrices(s: CubicString) -> tuple[Matrix, Matrix]:
    """Stiffness tridiagonal and squared-gap lower-triangular matrices.

    Eigenvalues of the string are the reciprocals of the eigenvalues of
    stiffness^-1 @ gap_gram.  Needs at least two masses.
    """
    validate(s)
    if s.n < 2:
        raise TooSmallError("the oscillatory route needs n >= 2")
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
    from itertools import combinations

    from .exact import det_exact

    if m.nrows > cap or m.ncols > cap:
        raise SizeCapExceededError(
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
