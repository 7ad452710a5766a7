"""Real root isolation with Sturm chains, entirely over rationals.

The chain is the classical one: p0 = p, p1 = p', p_{i+1} = -(p_{i-1} mod
p_i), each member divided by its positive content to keep coefficients
small (positive scaling never moves a sign).  V(x) counts sign changes
along the chain; V(a) - V(b) is the number of distinct real roots in
(a, b].  The last member is gcd(p, p') up to a constant, so a chain
that ends above degree 0 marks a repeated root, and isolation refuses
it.

The chain only counts roots: isolation splits (lo, hi] until every
piece holds exactly one.  A squarefree polynomial changes sign at each
of its roots, so from then on the sign of p alone says which half of a
piece keeps the root, and refinement bisects on it.  Signs come from p
scaled to integer coefficients and evaluated at num/den by homogeneous
Horner, sum c_i num^i den^(deg-i), which takes no gcd; the endpoints
stay integer numerators over a shared denominator until the enclosure
is returned.

Each root is a RatInterval: an open (lo, hi) holding one simple root,
or the point lo == hi of a rational root, found by a bisection midpoint
or, after refinement, by probing the smallest-denominator rational in
the interval; a rational eigenvalue is always caught once the interval
is narrower than the gap to the next candidate of that denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, lcm

from ..errors import NotSquarefreeError
from .interval import RatInterval
from .poly import Polynomial


def sturm_chain(p: Polynomial) -> list[Polynomial]:
    chain = [p.primitive(), p.derivative().primitive()]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        r = chain[-2] % chain[-1]
        if r.is_zero():
            break
        chain.append((-r).primitive())
    return chain


def integer_coefficients(p: Polynomial) -> list[int]:
    """Coefficients of a positive integer multiple of p, low degree first."""
    den = lcm(*(c.denominator for c in p.coefficients))
    return [c.numerator * (den // c.denominator) for c in p.coefficients]


def sign_at(coeffs: list[int], num: int, den: int) -> int:
    """Sign of the integer polynomial coeffs at num/den, for den > 0.

    Homogeneous Horner: sum c_i num^i den^(deg-i) is den^deg times the
    value, so it has the value's sign and needs no division.
    """
    if not coeffs:
        return 0
    acc = coeffs[-1]
    scale = 1
    for c in reversed(coeffs[:-1]):
        scale *= den
        acc = acc * num + c * scale
    return (acc > 0) - (acc < 0)


def sign_changes(chain: list[Polynomial], x: Fraction) -> int:
    signs = []
    for q in chain:
        s = sign_at(integer_coefficients(q), x.numerator, x.denominator)
        if s:
            signs.append(s)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def cauchy_root_bound(p: Polynomial) -> Fraction:
    """All real roots of p lie in [-bound, bound]."""
    if p.degree < 1:
        return Fraction(1)
    lead = abs(p.leading)
    return 1 + max(abs(c) for c in p.coefficients[:-1]) / lead


def _interior_point(p: Polynomial, lo: Fraction, hi: Fraction) -> Fraction:
    """A point strictly inside (lo, hi) where p, a nonzero polynomial,
    does not vanish."""
    mid = (lo + hi) / 2
    if p(mid) != 0:
        return mid
    # p has finitely many roots; walk a few asymmetric cuts
    for num, den in ((1, 3), (2, 3), (1, 5), (2, 5), (3, 5), (4, 5), (1, 7)):
        cut = lo + (hi - lo) * Fraction(num, den)
        if p(cut) != 0:
            return cut
    # deg + 2 distinct cuts, of which at most deg are roots of p != 0
    den = p.degree + 3
    cuts = (lo + (hi - lo) * Fraction(num, den) for num in range(1, den))
    return next(cut for cut in cuts if p(cut) != 0)


def sturm_isolate(p: Polynomial, lo: Fraction, hi: Fraction,
                  width: Fraction) -> list[RatInterval]:
    """Isolate every root of p in (lo, hi], one interval per root.

    p must be squarefree and must not vanish at lo or hi.  Each returned
    interval is no wider than width and carries exactly one root; when
    the root is rational it is identified as a point interval.
    """
    if p.degree < 1:
        return []
    chain = sturm_chain(p)
    if chain[-1].degree > 0:
        raise NotSquarefreeError("root isolation requires a squarefree polynomial")
    lo = Fraction(lo)
    hi = Fraction(hi)
    if lo >= hi:
        raise ValueError("empty interval")
    if p(lo) == 0 or p(hi) == 0:
        raise ValueError("endpoints must not be roots")
    coeffs = integer_coefficients(chain[0])
    out: list[RatInterval] = []
    # each end carries its sign-change count, so a cut is evaluated once
    stack = [(lo, sign_changes(chain, lo), hi, sign_changes(chain, hi))]
    while stack:
        a, va, b, vb = stack.pop()
        k = va - vb
        if k == 0:
            continue
        if k == 1:
            out.append(_bisect_by_sign(coeffs, a, b, width))
            continue
        cut = _interior_point(p, a, b)
        vc = sign_changes(chain, cut)
        stack.append((a, va, cut, vc))
        stack.append((cut, vc, b, vb))
    out.sort(key=lambda r: r.midpoint)
    return out


def refine_enclosure(p: Polynomial, box: RatInterval,
                     width: Fraction) -> RatInterval:
    """Re-refine an isolating interval to a smaller width; a point stays."""
    if box.width <= width:
        return box
    return _bisect_by_sign(integer_coefficients(p.primitive()),
                           box.lo, box.hi, width)


def _bisect_by_sign(coeffs: list[int], lo: Fraction, hi: Fraction,
                    width: Fraction) -> RatInterval:
    """Shrink (lo, hi), which holds exactly one root of the squarefree
    integer polynomial coeffs, below width; then probe the
    smallest-denominator rational inside it for an exact root.

    The endpoints are a / den and b / den; halving doubles den, so every
    midpoint is the same rational as (lo + hi) / 2.
    """
    if width <= 0:
        raise ValueError("refinement width must be positive")
    den = lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    b = hi.numerator * (den // hi.denominator)
    sa = sign_at(coeffs, a, den)
    if sa == 0 or sign_at(coeffs, b, den) != -sa:
        raise ValueError("enclosure endpoints must bracket a sign change")
    wn, wd = width.numerator, width.denominator
    while (b - a) * wd > wn * den:
        mid = a + b
        a, b, den = 2 * a, 2 * b, 2 * den
        s = sign_at(coeffs, mid, den)
        if s == 0:
            return RatInterval.point(Fraction(mid, den))
        # simple root: the half whose ends differ in sign keeps it
        if s == sa:
            a = mid
        else:
            b = mid
    lo, hi = Fraction(a, den), Fraction(b, den)
    guess = simplest_rational_between(lo, hi)
    if sign_at(coeffs, guess.numerator, guess.denominator) == 0:
        return RatInterval.point(guess)
    return RatInterval(lo, hi)


def simplest_rational_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The smallest-denominator rational in the closed interval [lo, hi].

    Walks the common continued-fraction expansion of the two ends, one
    term per step, until an integer fits between them, then folds the
    terms back up; a loop, so any precision fits in the stack.
    """
    if lo > hi:
        lo, hi = hi, lo
    if lo <= 0 <= hi:
        return Fraction(0)
    sign = 1
    if hi < 0:
        lo, hi, sign = -hi, -lo, -1
    terms = []
    while ceil(lo) > hi:
        f = floor(lo)
        terms.append(f)
        lo, hi = 1 / (hi - f), 1 / (lo - f)
    x = Fraction(ceil(lo))
    for f in reversed(terms):
        x = f + 1 / x
    return sign * x
