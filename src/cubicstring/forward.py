"""Forward spectral map of the discrete cubic string.

Between masses the wave function of  -phi''' = z m phi  is a quadratic
in x.  Crossing the support steps the boundary triple (phi, phi_x,
phi_xx) of value, slope and curvature, polynomials in the spectral
variable z, from (1, 0, 0): each mass makes the curvature jump by
-2 m z phi, and each gap carries the quadratic across.  The result is
the first column of the 3x3 crossing matrix; the inverse map peels the
same steps off, and the flow peels nothing, as it evaluates its
explicit solution on the t = 0 string.  The polynomials keep integer
numerators over one denominator, and each polynomial a step changes is
one integer combination (exact.linear_combination):
its terms scaled to one common denominator, summed, and one gcd divided
out.  A gap steps phi as phi + l (phi_x + l/2 phi_xx), two such
combinations, so that the square of l's denominator never enters a
common denominator: with the one combination phi + l phi_x +
l^2/2 phi_xx the peel of random_spectral(32, 7) took a quarter longer.

Eigenvalues are the roots of the curvature polynomial phi_xx away from
zero; they are positive and simple for positive masses and gaps.  The
two Weyl functions are the ratios phi_x/phi_xx and phi/phi_xx, and
their residues at the eigenvalues are the spectral data used by the
inverse map.  Eigenvalues and residues alike are RatIntervals: a point
interval exactly where the eigenvalue is rational, else a certified
enclosure narrow enough that the eigenvalue and its slope residue each
have one correctly rounded decimal at the requested precision.  The
residues are enclosed on integers: phi_xx', phi_x and phi over the
box's integer ends, all of one degree and so over one scale, which
cancels from the quotients, and each quotient end is one Fraction
picked by the signs of the operands.  The coefficients of phi_xx are,
up to 2(-z)^j, the chain invariants M_j of the isospectral flow.
"""

from __future__ import annotations

from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from math import lcm

from .errors import IdentityViolatedError, PrecisionExhaustedError
from .exact import (
    Polynomial,
    RatInterval,
    cauchy_root_bound,
    divide_ends,
    eval_interval,
    linear_combination,
    refine_enclosure,
    sturm_isolate,
)
from .exact.rational import over_common_denominator
from .record import Record
from .string_model import CubicString, validate

DEFAULT_PRECISION_BITS = 256

# cost grows about 4x per doubling of the precision: on masses 1, 2, 3
# and gaps 1, 1/2 spectrum and residues take 0.16 s at this cap, nearly
# all of it residues; past it a run is refused, not started.  With
# GUARD_BITS and a w-residue's leading zeros it also caps the residue
# refinement, and it caps the digits of e^(M t) the flow may carry to
# certify a row
MAX_PRECISION_BITS = 2 ** 14

# residues refine an irrational eigenvalue this many bits past the
# requested precision first, and at most this far past the cap, plus
# the leading zeros of its w-residue: with no head start most boxes
# needed a second try to round, and residues took twice as long; with
# no bits past the cap, runs at the cap could not round at all, and
# with these alone not a w-residue of 2^-75 either
GUARD_BITS = 16


def resolve_precision_bits(requested: int) -> int:
    """`requested` if it is an integer in 1..MAX_PRECISION_BITS, else a
    ValueError."""
    if requested < 1:
        raise ValueError(
            f"precision bits must be a positive integer, got {requested}")
    if requested > MAX_PRECISION_BITS:
        raise ValueError(f"precision bits {requested} is over the cap of "
                         f"{MAX_PRECISION_BITS}")
    return requested


def decimal_digits(bits: int) -> int:
    """The significant decimal digits that `bits` of precision print."""
    return max(1, int(bits * 0.30103))


def decimal_string(x: Fraction, digits: int) -> str:
    """x to `digits` significant decimal digits, correctly rounded half
    to even."""
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = digits, ROUND_HALF_EVEN
        return str(Decimal(x.numerator) / Decimal(x.denominator))


class WeylData(Record):
    """Boundary polynomials of a string, progressively enriched with
    eigenvalue enclosures and Weyl-function residues (RatIntervals)."""

    phi: Polynomial      # boundary value
    phi_x: Polynomial    # boundary slope
    phi_xx: Polynomial   # boundary curvature; eigenvalues are its roots / z
    eigenvalues: tuple[RatInterval, ...] | None = None
    w_residues: tuple[RatInterval, ...] | None = None  # of phi_x/phi_xx
    z_residues: tuple[RatInterval, ...] | None = None  # of phi/phi_xx


def jump_step(triple: tuple, mass: Fraction) -> tuple:
    """Cross one point mass: phi_xx -= 2 m z phi."""
    phi, phi_x, phi_xx = triple
    return phi, phi_x, linear_combination((phi_xx, 1, 0), (phi, -2 * mass, 1))


def gap_step(triple: tuple, gap: Fraction) -> tuple:
    """Cross one gap: integrate the quadratic, phi + l (phi_x + l/2 phi_xx)
    and phi_x + l phi_xx."""
    phi, phi_x, phi_xx = triple
    half = linear_combination((phi_x, 1, 0), (phi_xx, gap / 2, 0))
    return (linear_combination((phi, 1, 0), (half, gap, 0)),
            linear_combination((phi_x, 1, 0), (phi_xx, gap, 0)),
            phi_xx)


def partial_triples(s: CubicString):
    """The boundary triples of the first k masses, k = 1..n, stepped from
    (1, 0, 0) across mass 1, gap 1, ..., mass n; each step is made only
    when the next triple is asked for."""
    triple = jump_step((Polynomial.one(), Polynomial.zero(),
                        Polynomial.zero()), s.masses[0])
    yield triple
    for gap, mass in zip(s.gaps, s.masses[1:]):
        triple = jump_step(gap_step(triple, gap), mass)
        yield triple


def boundary_data(s: CubicString) -> WeylData:
    """Boundary polynomials: first column of the full crossing matrix,
    the last of the partial triples."""
    validate(s)
    for triple in partial_triples(s):
        pass
    return WeylData(*triple)


def eigenvalue_polynomial(wd: WeylData) -> Polynomial:
    """phi_xx / z: its roots are the nonzero eigenvalues."""
    if wd.phi_xx.coefficient(0) != 0:
        raise IdentityViolatedError("curvature polynomial must vanish at z = 0")
    return Polynomial.from_integers(wd.phi_xx.numerators[1:],
                                    wd.phi_xx.denominator)


def spectrum(wd: WeylData,
             precision_bits: int = DEFAULT_PRECISION_BITS) -> WeylData:
    """Isolate all eigenvalues of the boundary data wd, each to a box no
    wider than 2^-precision_bits, a point exactly when it is rational;
    exactly n-1 of them, positive and simple."""
    q = eigenvalue_polynomial(wd)
    roots = sturm_isolate(q, Fraction(0), cauchy_root_bound(q),
                          Fraction(1, 2 ** precision_bits))
    if len(roots) != q.degree:
        raise IdentityViolatedError(
            f"expected {q.degree} eigenvalues, isolated {len(roots)}")
    return wd.replace(eigenvalues=tuple(roots))


def _rounds(box: RatInterval, digits: int) -> bool:
    """Both ends of box round to one decimal, so every value inside does
    too; then box is also of one sign."""
    return decimal_string(box.lo, digits) == decimal_string(box.hi, digits)


def _leading_zeros(x: RatInterval) -> int:
    """About the binary places after the point that are 0 in every value
    of x, 0 from magnitude 1/2 up: a residue that small needs that many
    bits past the precision to round."""
    top = max(-x.lo, x.hi)
    return max(top.denominator.bit_length() - top.numerator.bit_length(), 0)


def _residue_pair(wd: WeylData, deriv: Polynomial, box: RatInterval,
                  degree: int):
    """Both residues over one eigenvalue box, None while phi_xx' has no
    sign on it.  phi_xx', phi_x and phi are enclosed over the box's
    integer ends, all over one scale den^degree, which cancels, and each
    quotient end is one Fraction.  A point box gives points, so only a
    zero phi_xx' there is an error."""
    (a, b), den = over_common_denominator((box.lo, box.hi))
    d = eval_interval(deriv, a, b, den, degree)
    if not (d[0] > 0 or d[1] < 0):
        if a == b:
            raise IdentityViolatedError("multiple eigenvalue in residues")
        return None
    return tuple(divide_ends(eval_interval(p, a, b, den, degree),
                             p.denominator, d, deriv.denominator)
                 for p in (wd.phi_x, wd.phi))


def residues(wd: WeylData,
             precision_bits: int = DEFAULT_PRECISION_BITS) -> WeylData:
    """Residues of the two Weyl functions at every eigenvalue.

    Exact (point intervals) at exact eigenvalues.  Elsewhere the box is
    refined GUARD_BITS past precision_bits, then GUARD_BITS more, then
    twice as many more each time, until it and its w-residue interval
    each round to one decimal_digits(precision_bits)-digit decimal and
    the z-residue's sign is settled; the refined boxes are returned as
    the eigenvalues.  A w-residue far below 1 needs about as many bits
    more as it has leading zeros, so the step grows from GUARD_BITS
    rather than doubling the precision, and a box refines up to
    GUARD_BITS plus the leading zeros of its last w interval past
    MAX_PRECISION_BITS.
    """
    if wd.eigenvalues is None:
        raise ValueError("run spectrum() before residues()")
    deriv = wd.phi_xx.derivative()
    degree = max(deriv.degree, wd.phi_x.degree, wd.phi.degree, 0)
    q = eigenvalue_polynomial(wd)
    digits = decimal_digits(precision_bits)
    boxes, w_out, z_out = [], [], []
    for box in wd.eigenvalues:
        bits, step = precision_bits + GUARD_BITS, GUARD_BITS
        cap = MAX_PRECISION_BITS + GUARD_BITS
        while True:
            box = refine_enclosure(q, box, Fraction(1, 2 ** bits))
            got = _rounds(box, digits) and _residue_pair(wd, deriv, box,
                                                         degree)
            if got:
                w, z = got
                if _rounds(w, digits) and (z.sign_definite()
                                           or z.width == 0):
                    break
                cap = MAX_PRECISION_BITS + GUARD_BITS + _leading_zeros(w)
            if bits >= cap:
                raise PrecisionExhaustedError(
                    f"could not round an eigenvalue and its residue to "
                    f"{digits} digits at {bits} bits")
            bits = min(bits + step, cap)
            step *= 2
        boxes.append(box)
        w_out.append(w)
        z_out.append(z)
    if not all(b.is_negative() for b in w_out + z_out):
        raise IdentityViolatedError("residue failed its negativity law")
    if all(e.width == 0 for e in boxes):
        # exact cross-check: the z-residues are determined by the w-residues
        lams = [e.lo for e in boxes]
        if (value_residues(lams, [b.lo for b in w_out])
                != tuple(b.lo for b in z_out)):
            raise IdentityViolatedError("z-residue relation failed exactly")
    return wd.replace(eigenvalues=tuple(boxes), w_residues=tuple(w_out),
                      z_residues=tuple(z_out))


def value_residues(lams, bs) -> tuple[Fraction, ...]:
    """Residues c_k of phi/phi_xx that the reflection symmetry of the Weyl
    functions forces from the residues b_k of phi_x/phi_xx,

        c_k = -sum_j b_j b_k / (lam_j + lam_k).

    On integers: with lam_j = p_j / L and b_j = u_j / V over the lcms of
    their denominators, and D_k the lcm of the p_j + p_k,

        c_k = -u_k L sum_j u_j (D_k / (p_j + p_k)) / (V^2 D_k),

    one Fraction each.  A vanishing p_j + p_k is a ZeroDivisionError.
    """
    ps, big_l = over_common_denominator(lams)
    us, big_v = over_common_denominator(bs)
    out = []
    for pk, uk in zip(ps, us):
        sums = [pj + pk for pj in ps]
        den = lcm(*sums)
        if den == 0:
            raise ZeroDivisionError("lam_j + lam_k vanishes")
        num = sum(uj * (den // s) for uj, s in zip(us, sums))
        out.append(Fraction(-uk * big_l * num, big_v * big_v * den))
    return tuple(out)
