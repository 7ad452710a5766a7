"""Brute-force oracles the tests check the runtime against.

The oscillatory route to the spectrum: the (n-1) x (n-1) tridiagonal
stiffness matrix and the lower-triangular squared-gap matrix.  Nonzero
eigenvalues of the string are the reciprocals of the eigenvalues of
stiffness^-1 @ gap_gram.  The gap_gram matrix equals the path matrix of
a little planar network, which makes it totally non-negative.

The chain sums M_j by their definition: a sum over all 2^n - 1 index
subsets, and read off the curvature polynomial phi_xx of the crossing,
the runtime's route before it summed them by a recurrence on integers
(invariant_masses); `conserved` gathers the latter with the total mass
and first moment.

The full 3x3 crossing matrices, as tuples of row tuples of polynomials:
the runtime steps only their first column (forward.boundary_data), and
their partial products are the approximation chain that inverse.py's
three solvers reproduce.  With them, the checks of that chain that the
runtime does not run: the order conditions of each approximant at
infinity, the four-term recurrence, the Weyl sum-product relation, and
the cofactor determinant.  These read the two Weyl functions as exact
ratios of polynomials (weyl_fractions); the runtime needs only their
products with the curvature polynomial.

Polynomials as tuples of reduced Fractions (FractionPolynomial), the
runtime's Polynomial before it kept integer numerators over one
denominator, and the crossing steps on them, the runtime's steps before
each became one integer combination (fraction_jump_step,
fraction_gap_step).

The Sturm chain by long division over the rationals, the runtime's
route before it took pseudo-remainders of integer lists, and the
interval Horner over Fraction, the runtime's enclosure before it ran on
integers over the box's grid, with the hull of the four quotients of
the ends, the runtime's interval division before it picked each end by
the signs of the operands, and the residues on both, the runtime's
route before its enclosures ran on integer ends.  The root refinement
that halves the box once per sign evaluation, the runtime's loop before
it guessed grid cells by Newton steps, and by_halving, which runs the
isolation or the refinement with it.

The value residues by one Fraction sum each, the runtime's route before
it summed integer numerators over one denominator.  The pair table
through the kernel b_a b_b / (lam_a + lam_b), the runtime's route before
it stepped the rank-one displacement.  The six minor families of the
pair table by one det_exact per block size, each block written out from
its definition; the runtime reads them off one bordered elimination
instead.  And the isospectral flow three more ways,
beside the runtime's explicit solution on integers: the same solution
on reduced Fractions, the runtime's route before it ran on integers
(flow_state_by_fractions); the boundary triple with its residues scaled
by sigma, which the peel inverts; and the string recover returns for
those residues, read off the t = 0 minors.

The RK4 step of the peak ODEs with its sums written as generator sums
(rk4_step_reference), the runtime's step before it became one pass
over the peaks.  Each sum adds left to right from the integer 0, as
builtin `sum` does on floats up to Python 3.11 (3.12 made it a
compensated sum), so the reference rounds alike on every version.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd, lcm
from operator import add
from typing import Sequence
from unittest.mock import patch

import numpy as np

from cubicstring.burgers import WaveState, rationalize
from cubicstring.errors import (
    IdentityViolatedError,
    NonSquareError,
    OrderingViolatedError,
)
from cubicstring.exact import (
    Matrix,
    Polynomial,
    RatInterval,
    det_exact,
    linear_combination,
    refine_enclosure,
)
from cubicstring.exact import roots
from cubicstring.exact.roots import _no_rational_root, _rational_root, sign_at
from cubicstring.forward import (
    GUARD_BITS,
    WeylData,
    boundary_data,
    decimal_digits,
    decimal_string,
    eigenvalue_polynomial,
    gap_step,
    jump_step,
    value_residues,
)
from cubicstring.inverse import (
    Approximant,
    BimomentTable,
    MomentMinors,
    SpectralData,
    _polynomial_part,
    _value_measure,
    bimoments,
    moment_minors,
    peel,
)
from cubicstring.string_model import (
    ConservedSet,
    CubicString,
    positions,
    validate,
)


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


def invariant_masses(phi_xx: Polynomial) -> list[Fraction]:
    """The chain invariants M_1..M_n off phi_xx = 2 sum_j (-z)^j M_j."""
    return [(-1) ** j * phi_xx.coefficient(j) / 2
            for j in range(1, phi_xx.degree + 1)]


def conserved(s: CubicString) -> ConservedSet:
    """Total mass, first moment and the chain invariants, exactly."""
    xs = positions(s)
    first = sum((m * x for m, x in zip(s.masses, xs)), Fraction(0))
    return ConservedSet(sum(s.masses, Fraction(0)), first,
                        tuple(invariant_masses(boundary_data(s).phi_xx)))


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
                block = Matrix([[m.rows[i][j] for j in cols] for i in rows])
                if det_exact(block) < 0:
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


def decimal_spectrum(s: CubicString, digits: int) -> tuple[list, list]:
    """The eigenvalues of s and their slope residues b = phi_x/phi_xx',
    each correctly rounded to `digits` significant digits (as Decimals).

    Newton's method on phi_xx/z in decimal at digits + 40, started from
    the float oscillatory route, with the boundary polynomials from the
    crossing matrices; each value is rounded once to `digits` at the
    end, so the answer is wrong only where it lies within 10^-40 of a
    rounding boundary.
    """
    if s.n == 1:
        return [], []
    phi_x, phi_xx = (row[0] for row in transition(s, 2 * s.n - 1)[1:])
    q = Polynomial(phi_xx.coefficients[1:])
    work = digits + 40
    with localcontext() as ctx:
        ctx.prec = work

        def at(p, x):
            acc = Decimal(0)
            for c in reversed(p.coefficients):
                acc = acc * x + Decimal(c.numerator) / c.denominator
            return acc

        dq = q.derivative()
        lams, bs = [], []
        for start in float_spectrum_oracle(s):
            x = Decimal(float(start))
            for _ in range(200):
                step = at(q, x) / at(dq, x)
                x -= step
                if abs(step) < abs(x) * Decimal(10) ** -(work // 2):
                    x -= at(q, x) / at(dq, x)  # squares the error
                    break
            else:
                raise ArithmeticError(f"Newton did not settle from {start}")
            if abs(x - Decimal(float(start))) > abs(x) * Decimal("1e-6"):
                raise ArithmeticError(f"Newton left {start} for {x}")
            lams.append(x)
            bs.append(at(phi_x, x) / at(phi_xx.derivative(), x))
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise ArithmeticError("Newton found a root twice")
        ctx.prec = digits
        return [+x for x in lams], [+b for b in bs]


# -- polynomials over Fraction ---------------------------------------------

class FractionPolynomial:
    """A polynomial as its coefficients, reduced Fractions low degree
    first with no trailing zeros, and the ring operations on them one
    Fraction at a time."""

    __slots__ = ("coefficients",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coefficients = tuple(cs)

    def __add__(self, other):
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FractionPolynomial(out)

    def __neg__(self):
        return FractionPolynomial(-c for c in self.coefficients)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionPolynomial(c * other for c in self.coefficients)
        a, b = self.coefficients, other.coefficients
        out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return FractionPolynomial(out)

    def __eq__(self, other):
        return self.coefficients == other.coefficients

    def __hash__(self):
        return hash(self.coefficients)

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def derivative(self):
        return FractionPolynomial(j * c for j, c in
                                  enumerate(self.coefficients) if j)

    def difference_quotient(self, lam):
        """(p(z) - p(lam)) / (z - lam), by synthetic division."""
        cs, d = self.coefficients, len(self.coefficients) - 1
        if d < 1:
            return FractionPolynomial()
        out = [Fraction(0)] * d
        out[d - 1] = cs[d]
        for j in range(d - 1, 0, -1):
            out[j - 1] = cs[j] + lam * out[j]
        return FractionPolynomial(out)


def fraction_jump_step(triple: tuple, mass: Fraction) -> tuple:
    """Cross one point mass on FractionPolynomials: phi_xx -= 2 m z phi."""
    phi, phi_x, phi_xx = triple
    return (phi, phi_x,
            phi_xx - FractionPolynomial((0, *phi.coefficients)) * (2 * mass))


def fraction_gap_step(triple: tuple, gap: Fraction) -> tuple:
    """Cross one gap on FractionPolynomials: integrate the quadratic."""
    phi, phi_x, phi_xx = triple
    return (phi + phi_x * gap + phi_xx * (gap * gap / 2),
            phi_x + phi_xx * gap,
            phi_xx)


# -- the Sturm chain by rational division ---------------------------------

def poly_divmod(a: Polynomial, b: Polynomial) -> tuple[Polynomial,
                                                        Polynomial]:
    """(q, r) with a = q b + r and deg r < deg b, by long division over
    the rationals."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem, db = list(a.coefficients), b.degree
    quot = [Fraction(0)] * max(len(rem) - db, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = quot[i] = rem[i + db] / b.leading
        for j, bj in enumerate(b.coefficients):
            rem[i + j] -= c * bj
    return Polynomial(quot), Polynomial(rem[:db])


def primitive(p: Polynomial) -> Polynomial:
    """p divided by its positive rational content."""
    if p.is_zero():
        return p
    num, den = 0, 1
    for c in p.coefficients:
        num, den = gcd(num, c.numerator), lcm(den, c.denominator)
    return p * Fraction(den, num)


def sturm_chain_by_division(p: Polynomial) -> list[Polynomial]:
    """p, p' and each -(p_{i-1} mod p_i), all divided by their positive
    content, until a remainder is 0 or a member is a constant."""
    chain = [primitive(p), primitive(p.derivative())]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        r = poly_divmod(chain[-2], chain[-1])[1]
        if r.is_zero():
            break
        chain.append(primitive(-r))
    return chain


# -- the interval Horner over Fraction ------------------------------------

def interval_horner(p: Polynomial, lo: Fraction,
                    hi: Fraction) -> tuple[Fraction, Fraction]:
    """The ends of Horner's rule on p over [lo, hi] with interval
    products (the min and max of the four end products) and sums, all
    over Fraction, from the point 0."""
    acc_lo = acc_hi = Fraction(0)
    for c in reversed(p.coefficients):
        products = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
        acc_lo, acc_hi = min(products) + c, max(products) + c
    return acc_lo, acc_hi


def quotient_hull(num: tuple[Fraction, Fraction],
                  den: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    """The hull of the four quotients of the ends of num by those of
    den, which must not contain zero."""
    if den[0] <= 0 <= den[1]:
        raise ZeroDivisionError("division by an interval containing zero")
    q = [x / y for x in num for y in den]
    return min(q), max(q)


def residues_by_hull(wd: WeylData, precision_bits: int) -> tuple:
    """(eigenvalues, w_residues, z_residues) that forward.residues
    returns, by its refinement schedule, with every enclosure over
    Fraction: interval_horner of phi_xx', phi_x and phi over each box,
    and quotient_hull."""
    q, deriv = eigenvalue_polynomial(wd), wd.phi_xx.derivative()
    digits = decimal_digits(precision_bits)

    def rounds(ends):
        return decimal_string(ends[0], digits) == decimal_string(ends[1],
                                                                 digits)

    out = []
    for box in wd.eigenvalues:
        bits, step = precision_bits + GUARD_BITS, GUARD_BITS
        while True:
            box = refine_enclosure(q, box, Fraction(1, 2 ** bits))
            d = interval_horner(deriv, box.lo, box.hi)
            if rounds((box.lo, box.hi)) and not d[0] <= 0 <= d[1]:
                w, z = (quotient_hull(interval_horner(p, box.lo, box.hi), d)
                        for p in (wd.phi_x, wd.phi))
                if rounds(w) and (z[0] == z[1] or not z[0] <= 0 <= z[1]):
                    break
            bits, step = bits + step, 2 * step
        out.append((box, RatInterval(*w), RatInterval(*z)))
    return tuple(zip(*out)) if out else ((), (), ())


# -- the halving refinement -----------------------------------------------

def bisect_by_sign(coeffs: list[int], a: int, b: int, den: int,
                   width: Fraction, lead: int) -> RatInterval:
    """Shrink the open (a/den, b/den), which holds exactly one root of
    the squarefree integer polynomial coeffs, below width, by halving:
    each step doubles den and keeps the half whose ends differ in sign.
    With lead, the leading coefficient, the root is tested once against
    its one candidate k/lead when the box is first no wider than 1/lead,
    halving on past width until then unless the sieve shows there is no
    rational root; lead = 0 skips the test."""
    if width <= 0:
        raise ValueError("refinement width must be positive")
    sa, sb = sign_at(coeffs, a, den), sign_at(coeffs, b, den)
    if sa == sb:
        raise IdentityViolatedError(
            "enclosure endpoints must bracket a sign change")
    left = sa or -sb
    wn, wd = width.numerator, width.denominator
    box = None
    while True:
        if box is None and (b - a) * wd <= wn * den:
            box = RatInterval(Fraction(a, den), Fraction(b, den))
            if lead and (b - a) * lead > den and _no_rational_root(coeffs):
                lead = 0
        if lead and (b - a) * lead <= den:
            box = _rational_root(coeffs, lead, a, b, den) or box
            lead = 0
        if box is not None and not lead:
            return box
        mid = a + b
        a, b, den = 2 * a, 2 * b, 2 * den
        s = sign_at(coeffs, mid, den)
        if s == 0:
            return RatInterval.point(Fraction(mid, den))
        if s == left:
            a = mid
        else:
            b = mid


def by_halving(f, *args):
    """f(*args) with every root refinement of sturm_isolate and
    refine_enclosure done by bisect_by_sign."""
    with patch.object(roots, "_refine_on_grid", bisect_by_sign):
        return f(*args)


# -- the crossing matrices ------------------------------------------------

def reflected(p: Polynomial) -> Polynomial:
    """p(-z)."""
    return Polynomial(tuple(c if j % 2 == 0 else -c
                            for j, c in enumerate(p.coefficients)))


def mat_mul(a: tuple, b: tuple) -> tuple:
    """Product of two matrices given as row tuples, over any ring."""
    cols = tuple(zip(*b))
    out = []
    for r in a:
        row = []
        for c in cols:
            acc = r[0] * c[0]
            for x, y in zip(r[1:], c[1:]):
                acc = acc + x * y
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def jump_matrix(mass: Fraction) -> tuple:
    """Crossing one point mass: curvature jumps by -2 m z times the value."""
    one, zero = Polynomial.one(), Polynomial.zero()
    return ((one, zero, zero),
            (zero, one, zero),
            (Polynomial.x() * (-2 * Fraction(mass)), zero, one))


def free_matrix(gap: Fraction) -> tuple:
    """Free propagation across one gap: integrate the quadratic."""
    one, zero = Polynomial.one(), Polynomial.zero()
    g = Polynomial.constant(gap)
    half_g2 = Polynomial.constant(Fraction(gap) ** 2 / 2)
    return ((one, g, half_g2),
            (zero, one, g),
            (zero, zero, one))


def _factors(s: CubicString) -> list:
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


def transition(s: CubicString, steps: int) -> tuple:
    """Product of the first `steps` crossing factors, 1 <= steps <= 2n-1."""
    validate(s)
    if not 1 <= steps <= 2 * s.n - 1:
        raise ValueError(f"steps must lie in 1..{2 * s.n - 1}, got {steps}")
    fs = _factors(s)
    acc = fs[0]
    for f in fs[1:steps]:
        acc = mat_mul(acc, f)
    return acc


_J_ROWS = ((0, 0, 1), (0, -1, 0), (1, 0, 0))


def check_automorphism(s: CubicString) -> None:
    """The crossing matrix satisfies S(-z)^T J S(z) J = I with the
    antidiagonal involution J; raises if the exact identity fails."""
    full = transition(s, 2 * s.n - 1)
    j = tuple(tuple(Polynomial.constant(e) for e in row) for row in _J_ROWS)
    reflected_t = tuple(zip(*((reflected(p) for p in row) for row in full)))
    prod = mat_mul(mat_mul(mat_mul(reflected_t, j), full), j)
    eye = tuple(tuple(Polynomial.constant(int(a == b)) for b in range(3))
                for a in range(3))
    if prod != eye:
        raise IdentityViolatedError("crossing matrix broke its symmetry identity")


def det_cofactor(rows: tuple):
    """Determinant by Laplace expansion along the first row.

    Works over any commutative ring; exponential cost, so only for tiny
    matrices and as an independent cross-check of det_exact.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise NonSquareError("determinant of a non-square matrix")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    acc = None
    for j in range(n):
        minor = tuple(r[:j] + r[j + 1:] for r in rows[1:])
        term = rows[0][j] * det_cofactor(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


# -- the Weyl functions as exact fractions ---------------------------------

def poly_product(factors: Sequence[Polynomial]) -> Polynomial:
    acc = Polynomial.one()
    for f in factors:
        acc = acc * f
    return acc


def _ratio(points, weights) -> tuple[Polynomial, Polynomial]:
    """sum_k weights_k / (z - points_k) as (numerator, denominator)."""
    den = poly_product([Polynomial.x() - Polynomial.constant(p)
                        for p in points])
    return _polynomial_part(den, points, weights), den


def weyl_fractions(sd: SpectralData) -> tuple[Polynomial, Polynomial,
                                              Polynomial, Polynomial]:
    """(num_w, den_w, num_z, den_z): both Weyl functions as exact ratios."""
    num_z, den_z = _ratio(*_value_measure(
        sd.eigenvalues, value_residues(sd.eigenvalues, sd.residues),
        sd.total_mass))
    return (*_ratio(sd.eigenvalues, sd.residues), num_z, den_z)


# -- the approximation chain ----------------------------------------------

def chain_index(app: Approximant) -> int:
    """Position of an approximant in the chain: 3k, 3k+1, 3k+2 for
    kinds III, II and I."""
    return 3 * app.k + {"III": 0, "II": 1, "I": 2}[app.kind]


def verify_weyl_relation(sd: SpectralData) -> None:
    """Exact check of Z(z) + Z(-z) = W(z) W(-z), cross-multiplied."""
    num_w, den_w, num_z, den_z = weyl_fractions(sd)
    lhs = (num_z * reflected(den_z) + reflected(num_z) * den_z) \
        * den_w * reflected(den_w)
    rhs = num_w * reflected(num_w) * den_z * reflected(den_z)
    if lhs != rhs:
        raise IdentityViolatedError("Weyl sum-product relation failed exactly")


def _big_o(num: Polynomial, den: Polynomial, j: int) -> bool:
    """num/den = O(z**j) as z -> infinity."""
    return num.is_zero() or num.degree - den.degree <= j


def verify_approximant(sd: SpectralData, app: Approximant) -> None:
    """Degrees, normalizations and the order conditions at infinity.

    The order conditions, with W and Z the two Weyl functions:
        den * Z - num_z = O(1/z)            (all kinds)
        den * W - num_w = O(1/z) for kind III, O(1) for kinds II and I
        num_z + num_w W*(z) + den Z*(z) = O(z^-(k+1))
    where W*(z) = -W(-z) and Z*(z) = Z(-z).  Each side is an exact
    rational function of z, so each condition is a degree count.
    """
    k = app.k
    if app.kind == "I":
        # at k = 0 the slope numerator is identically zero (degree -1)
        want = (k + 1, k if k >= 1 else -1, k)
    else:
        want = (k, k - 1, k - 1)
    got = (app.den.degree, app.num_w.degree, app.num_z.degree)
    if got != want:
        raise IdentityViolatedError(f"degree pattern {got} != {want}")
    if app.kind == "III" and app.den.coefficient(0) != 1:
        raise IdentityViolatedError("kind III needs den(0) = 1")
    if app.kind in ("II", "I") and app.den.coefficient(0) != 0:
        raise IdentityViolatedError("kinds II and I need den(0) = 0")
    if app.kind == "II" and app.num_w.coefficient(0) != 1:
        raise IdentityViolatedError("kind II needs num_w(0) = 1")
    if app.kind == "I" and (app.num_w.coefficient(0) != 0
                            or app.num_z.coefficient(0) != 1):
        raise IdentityViolatedError("kind I normalization failed")

    num_w, den_w, num_z, den_z = weyl_fractions(sd)
    if not _big_o(app.den * num_z - app.num_z * den_z, den_z, -1):
        raise IdentityViolatedError("value-side approximation order failed")
    order_w = -1 if app.kind == "III" else 0
    if not _big_o(app.den * num_w - app.num_w * den_w, den_w, order_w):
        raise IdentityViolatedError("slope-side approximation order failed")
    dwr, dzr = reflected(den_w), reflected(den_z)
    sym = (app.num_z * dwr * dzr - app.num_w * reflected(num_w) * dzr
           + app.den * reflected(num_z) * dwr)
    if not _big_o(sym, dwr * dzr, -(k + 1)):
        raise IdentityViolatedError("symmetry order condition failed")


def recurrence_sequences(s: CubicString) -> tuple[dict, dict, dict]:
    """Run the chain recurrence from the three seed vectors.

    Step k crosses gap n-k, then mass n-k, from the right end: the
    triple (X_{3k-3}, X_{3k-2}, X_{3k-1}) becomes (X_{3k}, X_{3k+1},
    X_{3k+2}) by forward.gap_step and then forward.jump_step.
    Seeds (X_-1, X_0, X_1) = (1,0,0), (0,1,0), (0,0,1) generate the
    value-numerator, denominator and slope-numerator chains; returns
    the three dicts keyed by chain index up to 3n-1.
    """
    out = []
    for seed in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        x = {k: Polynomial.constant(v) for k, v in zip((-1, 0, 1), seed)}
        triple = (x[0], x[1], x[-1])
        for k in range(s.n):
            if k:
                triple = gap_step(triple, s.gaps[s.n - k - 1])
            triple = jump_step(triple, s.masses[s.n - k - 1])
            x[3 * k], x[3 * k + 1], x[3 * k + 2] = triple
        out.append(x)
    return out[0], out[1], out[2]


# -- the pair table, its minors and the flow -------------------------------

def value_residues_by_fractions(lams, bs) -> tuple[Fraction, ...]:
    """forward.value_residues as one Fraction sum per residue,
    c_k = -sum_j b_j b_k / (lam_j + lam_k), the runtime's route before
    it summed integer numerators over one denominator."""
    return tuple(-sum((bj * bk / (lj + lk) for lj, bj in zip(lams, bs)),
                      Fraction(0))
                 for lk, bk in zip(lams, bs))


def pair_table_by_kernel(lams, bs, max_order: int) -> tuple[tuple, ...]:
    """The pair table I_ij, 0 <= i, j <= max_order, of the weights bs at
    the points lams: I_ij = sum_a lam_a^i u_aj with u_aj = sum_b K_ab
    lam_b^j and the kernel K_ab = b_a b_b / (lam_a + lam_b)."""
    lams = tuple(Fraction(x) for x in lams)
    bs = tuple(Fraction(x) for x in bs)
    orders = range(max_order + 1)
    powers = [[lam ** j for j in orders] for lam in lams]
    kernel = [[ba * bb / (la + lb) for lb, bb in zip(lams, bs)]
              for la, ba in zip(lams, bs)]
    u = [[sum((k * pw[j] for k, pw in zip(row, powers)), Fraction(0))
          for j in orders] for row in kernel]
    return tuple(tuple(sum((pw[i] * ua[j] for pw, ua in zip(powers, u)),
                           Fraction(0)) for j in orders) for i in orders)


def moment_minors_by_blocks(bt: BimomentTable) -> MomentMinors:
    """The six families of inverse.moment_minors, one det_exact per size.

    entry(i, j) gives the (i, j) entry of every block of a family; the
    block of size k is its k x k corner.
    """
    t, beta = bt.pair_table, bt.moments
    atom = 1 / (2 * bt.total_mass)
    top = bt.max_order + 1

    def family(size, entry):
        return tuple(det_exact(Matrix([[entry(i, j) for j in range(k)]
                                       for i in range(k)]))
                     for k in range(size))

    return MomentMinors(
        mass_corner=family(top + 1, lambda i, j:
                           t[i][j] + (atom if i == j == 0 else 0)),
        corner=family(top + 1, lambda i, j: t[i][j]),
        inner=family(top, lambda i, j: t[i + 1][j + 1]),
        shifted=family(top, lambda i, j: t[i + 1][j]),
        beta_shifted=family(top, lambda i, j:
                            beta[i] if j == 0 else t[i + 1][j - 1]),
        beta_inner=family(top, lambda i, j:
                          beta[i] if j == 0 else t[i + 1][j]),
    )


def flow_triple(wd: WeylData, total_mass: Fraction, sigma: Fraction) -> tuple:
    """The boundary triple once the flow has scaled the residues of W by
    sigma: phi_xx stays, W scales by sigma and the residues of Z by
    sigma^2 around its atom -1/(2M) at zero, so the triple is
    (sigma^2 phi + (sigma^2 - 1)/(2M) phi_xx/z, sigma phi_x, phi_xx)."""
    s2 = sigma * sigma
    shift = (s2 - 1) / (2 * total_mass)
    return (linear_combination((wd.phi, s2, 0),
                               (eigenvalue_polynomial(wd), shift, 0)),
            wd.phi_x * sigma, wd.phi_xx)


def last_scale_of_triple(wd: WeylData, total_mass: Fraction) -> Fraction:
    """burgers.last_scale read off the boundary triple: with
    P = [z^n] phi_xx, C = P / (2M) and B = lead phi + C, B > 0 for
    n >= 2, the peel's first mass at sigma is
    m_n = -P / (2 (sigma^2 B - C)), at most 2^-1075, which rounds to
    0.0, once sigma^2 >= (-P 2^1074 + C) / B."""
    p = wd.phi_xx.leading
    c = p / (2 * total_mass)
    return (-p * 2 ** 1074 + c) / (wd.phi.leading + c)


def flow_closed_form(sd: SpectralData, sigma: Fraction) -> CubicString:
    """The string of the data with every residue scaled by sigma.

    Residues b -> sigma b scale the pair table by sigma^2 and the
    moments by sigma; the atom a = 1/(2M) stays.  With C, I, S and B
    the sigma = 1 corner, inner, shifted and beta_shifted minors, the
    Cramer forms of recover_detailed become
        m_n     = 1 / (2 (sigma^2 C[1] + a))
        m_{n-k} = sigma^2 S[k]^2
                  / (2 (sigma^2 C[k+1] + a I[k]) (sigma^2 C[k] + a I[k-1]))
        l_{n-k} = -2 (sigma C[k] + a I[k-1] / sigma) / B[k].
    """
    n = sd.n
    mm = moment_minors(bimoments(sd, n - 1))
    c, inner, s, b = mm.corner, mm.inner, mm.shifted, mm.beta_shifted
    a = 1 / (2 * sd.total_mass)
    s2 = sigma * sigma
    masses = [1 / (2 * (s2 * c[1] + a))]
    gaps = []
    for k in range(1, n):
        masses.append(s2 * s[k] ** 2 / (2 * (s2 * c[k + 1] + a * inner[k])
                                        * (s2 * c[k] + a * inner[k - 1])))
        gaps.append(-2 * (sigma * c[k] + a * inner[k - 1] / sigma) / b[k])
    return CubicString(tuple(reversed(masses)), tuple(reversed(gaps)))


def flow_state_by_fractions(s: CubicString, total_mass: Fraction,
                            sigma: Fraction) -> CubicString:
    """burgers.flow_state on reduced Fractions, one partial mass and one
    gap at a time: each partial mass P_j goes to M P_j tau / (Q_j +
    P_j tau), tau = sigma^2, and each gap l_j to l_j (Q_j + P_j tau) /
    (M sigma)."""
    tau, scale = sigma * sigma, total_mass * sigma
    partial, partials, gaps = Fraction(0), [Fraction(0)], []
    for m, gap in zip(s.masses, s.gaps):
        partial += m
        spread = total_mass + partial * (tau - 1)  # Q_j + P_j tau
        partials.append(total_mass * partial * tau / spread)
        gaps.append(gap * spread / scale)
    partials.append(total_mass)
    return CubicString(tuple(b - a for a, b in zip(partials, partials[1:])),
                       tuple(gaps))


def flow_reference(s0: WaveState, t: float) -> tuple[tuple[float, ...],
                                                     tuple[float, ...]]:
    """Positions and masses, as doubles, of the string peeled at
    sigma = e^(M (t - t0)) to 617 digits (2,048 bits), anchored by M+:
    the flow state at t up to a time error some 600 digits below any
    double's."""
    base = rationalize(s0)
    wd = boundary_data(base)
    total = sum(base.masses, Fraction(0))
    first_moment = sum((m * x for m, x in zip(base.masses, positions(base))),
                       Fraction(0))
    x = total * Fraction(t - s0.time)
    with localcontext() as ctx:
        ctx.prec = 617
        sigma = Fraction((Decimal(x.numerator) / Decimal(x.denominator)).exp())
    bare = peel(flow_triple(wd, total, sigma))
    offs = positions(bare)
    anchor = (first_moment
              - sum(m * o for m, o in zip(bare.masses, offs))) / total
    return (tuple(float(o + anchor) for o in offs),
            tuple(float(m) for m in bare.masses))


def _left_sum(terms):
    return reduce(add, terms, 0)


def rhs_reference(xs, ms) -> tuple[list, list]:
    """dx_k = sum_i m_i |x_k - x_i| and dm_k = 2 m_k (sum_{i>k} m_i -
    sum_{i<k} m_i), each a separate left-to-right sum; the order of the
    peaks is checked first."""
    for a, b in zip(xs, xs[1:]):
        if b <= a:
            raise OrderingViolatedError(f"peaks out of order: {a} !< {b}")
    n = len(xs)
    dx = [_left_sum(ms[i] * abs(x - xs[i]) for i in range(n)) for x in xs]
    dm = [2 * ms[k] * (_left_sum(ms[k + 1:]) - _left_sum(ms[:k]))
          for k in range(n)]
    return dx, dm


def rk4_step_reference(xs, ms, h) -> tuple[list, list]:
    """One classical RK4 step of length h on rhs_reference."""
    kx1, km1 = rhs_reference(xs, ms)
    kx2, km2 = rhs_reference([x + h / 2 * d for x, d in zip(xs, kx1)],
                             [m + h / 2 * d for m, d in zip(ms, km1)])
    kx3, km3 = rhs_reference([x + h / 2 * d for x, d in zip(xs, kx2)],
                             [m + h / 2 * d for m, d in zip(ms, km2)])
    kx4, km4 = rhs_reference([x + h * d for x, d in zip(xs, kx3)],
                             [m + h * d for m, d in zip(ms, km3)])
    xs = [x + h / 6 * (a + 2 * b + 2 * c + d)
          for x, a, b, c, d in zip(xs, kx1, kx2, kx3, kx4)]
    ms = [m + h / 6 * (a + 2 * b + 2 * c + d)
          for m, a, b, c, d in zip(ms, km1, km2, km3, km4)]
    return xs, ms
