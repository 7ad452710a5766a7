"""Real root isolation with Sturm chains, on one integer grid.

The chain is the classical one: p0 = p, p1 = p', p_{i+1} = -(p_{i-1} mod
p_i), each member divided by its positive content.  It is built on
integer coefficient lists: the remainder is the pseudo-remainder, which
scales p_{i-1} by |lead p_i|^(deg p_{i-1} - deg p_i + 1), a positive
factor, so once the content is divided out each member is the one the
rational division gives, with the same signs everywhere.  V(a) - V(b),
V(x) the sign changes along the chain, counts the distinct real roots
in (a, b], also where a or b is a root.  The last member is gcd(p, p')
up to a constant, so a chain that ends above degree 0 marks a repeated
root, and isolation refuses it.

Isolation takes the chain's integer coefficients and writes (lo, hi) as
integer numerators over one shared denominator, which each halving
doubles: every cut is the rational (lo + hi) / 2, and every sign a
homogeneous integer Horner, sum c_i num^i den^(deg-i), with no gcd.
The chain cuts pieces until each holds one root; a cut that lands on a
root is that root, a point, and the pieces on both sides carry on.

Each piece of one root is then refined by Abbott's quadratic interval
refinement on the grid: a Newton step from the midpoint names a finer
cell, taken when p has opposite signs at its ends, as it is then the
cell halving reaches; else one halving is made.  The jump doubles on
each cell taken, halves on each refused, and stops at each level where
the width or the rational-root test below acts.  No Fraction is built
until a box is returned.

A rational root of the integer p is some k/lead, lead its leading
coefficient, and a box no wider than 1/lead holds one such k at most:
each box is tested for it once, as soon as it is that narrow.  Where
the requested width comes first, the refinement goes on for the test
alone and, if the root is not rational, returns the box of the
requested width; it does not when p has no root modulo some small
prime, which proves it has no rational root.  So a root is a point
exactly when it is rational, at any width.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from ..errors import IdentityViolatedError, NotSquarefreeError
from .interval import RatInterval
from .poly import Polynomial
from .rational import content_free, over_common_denominator


def sturm_chain(p: Polynomial) -> list[Polynomial]:
    chain = [content_free(q.numerators) for q in (p, p.derivative())]
    while len(chain[-1]) > 1:
        r = _pseudo_remainder(chain[-2], chain[-1])
        if not r:
            break
        chain.append(content_free([-c for c in r]))
    return [Polynomial.from_integers(q) for q in chain]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of a mod b, for deg a >= deg b: each step
    scales a by |lead b| and cancels its top term."""
    a, scale, sign = list(a), abs(b[-1]), (1 if b[-1] > 0 else -1)
    while len(a) >= len(b):
        c, shift = a.pop() * sign, len(a) - len(b) + 1
        if c:
            a = [x * scale for x in a]
            for j, bj in enumerate(b[:-1]):
                a[shift + j] -= c * bj
    while a and not a[-1]:
        a.pop()
    return a


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


def sign_changes(chain: list[list[int]], num: int, den: int) -> int:
    """V(num/den) along a chain of integer coefficient lists."""
    signs = [s for s in (sign_at(q, num, den) for q in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def cauchy_root_bound(p: Polynomial) -> Fraction:
    """A power of two 2^k, k >= 1, at or above Cauchy's bound
    1 + max|c_i| / |lead|, so above every real root of p.  It is read
    off the bit lengths of p's numerators, so the isolation
    grid carries none of their bits."""
    if p.degree < 1:
        return Fraction(2)
    *rest, lead = p.numerators
    top = max(abs(c) for c in rest).bit_length()
    # max|c_i| / |lead| < 2^(top - bits(lead) + 1)
    return Fraction(2 ** max(top - abs(lead).bit_length() + 2, 1))


# an integer polynomial with no root modulo one of these primes that
# does not divide its leading coefficient has no rational root; primes
# to 200, as the leading coefficient of q for large operands is divisible
# by most primes below 50, and the first that proved none was often 53 to 97
_SIEVE_PRIMES = tuple(p for p in range(2, 200)
                      if all(p % d for d in range(2, int(p ** 0.5) + 1)))


def _no_rational_root(coeffs: list[int]) -> bool:
    """Whether a sieve prime shows that the integer polynomial coeffs has
    no rational root: a root u/v has v dividing the leading coefficient,
    so for p not dividing it u/v mod p would be a root mod p."""
    for p in _SIEVE_PRIMES:
        high = [c % p for c in reversed(coeffs)]
        if high[0] and all(reduce(lambda acc, c: (acc * x + c) % p, high)
                           for x in range(p)):
            return True
    return False


def sturm_isolate(p: Polynomial, lo: Fraction, hi: Fraction,
                  width: Fraction) -> list[RatInterval]:
    """Isolate every root of p in (lo, hi], one interval per root.

    p must be squarefree and must not vanish at lo or hi.  Each returned
    interval is no wider than width and carries exactly one root; when
    the root is rational it is identified as a point interval.
    """
    if p.degree < 1:
        return []
    chain = [q.numerators for q in sturm_chain(p)]
    if len(chain[-1]) > 1:
        raise NotSquarefreeError("root isolation requires a squarefree polynomial")
    lo, hi = Fraction(lo), Fraction(hi)
    if lo >= hi:
        raise ValueError("empty interval")
    coeffs = chain[0]
    (a, b), den = over_common_denominator((lo, hi))
    if sign_at(coeffs, a, den) == 0 or sign_at(coeffs, b, den) == 0:
        raise IdentityViolatedError("endpoints must not be roots")
    out: list[RatInterval] = []
    # a piece is the open (a/den, b/den): va is V(a), vb is V just left
    # of b, so va - vb counts the roots inside, and ra, rb flag the ends
    # that are roots; each cut is evaluated once
    stack = [(a, b, den, sign_changes(chain, a, den),
              sign_changes(chain, b, den), False, False)]
    while stack:
        a, b, den, va, vb, ra, rb = stack.pop()
        k = va - vb
        if k == 0:
            continue
        if k == 1 and not (ra and rb):
            out.append(_refine_on_grid(coeffs, a, b, den, width,
                                       abs(coeffs[-1])))
            continue
        cut, a, b, den = a + b, 2 * a, 2 * b, 2 * den
        vc = sign_changes(chain, cut, den)
        rc = sign_at(coeffs, cut, den) == 0
        if rc:
            out.append(RatInterval.point(Fraction(cut, den)))
        stack.append((a, cut, den, va, vc + rc, ra, rc))
        stack.append((cut, b, den, vc, vb, rc, rb))
    out.sort(key=lambda r: (r.lo, r.hi))
    return out


def refine_enclosure(p: Polynomial, box: RatInterval,
                     width: Fraction) -> RatInterval:
    """Re-refine an isolating interval to a smaller width; a point stays.

    The open box must hold exactly one root, an irrational one, as every
    box sturm_isolate returns does; an end may be another root.
    """
    if box.width <= width:
        return box
    (a, b), den = over_common_denominator((box.lo, box.hi))
    return _refine_on_grid(content_free(p.numerators), a, b, den, width, 0)


def _rational_root(coeffs: list[int], lead: int, a: int, b: int,
                   den: int) -> RatInterval | None:
    """The root k/lead of coeffs in the open (a/den, b/den), no wider
    than 1/lead, as a point, if there is one: the first k/lead above
    a/den is the one candidate."""
    k = a * lead // den + 1
    if k * den < b * lead and sign_at(coeffs, k, lead) == 0:
        return RatInterval.point(Fraction(k, lead))
    return None


def _levels(num: int, den: int) -> int:
    """The least k >= 0 with num <= den * 2^k, for den > 0."""
    k = max(num.bit_length() - den.bit_length(), 0)
    return k + ((den << k) < num)


def _newton_cell(coeffs: list[int], a: int, b: int, den: int,
                 levels: int) -> int | None:
    """The index, clamped to 0..2^levels - 1, of the cell `levels` below
    (a/den, b/den) that holds the Newton step x from its midpoint, None
    if p'(mid) = 0: x - a/den = (span dacc - acc) / (2 den dacc), from
    acc = (2 den)^d p(mid) and dacc = (2 den)^(d-1) p'(mid)."""
    mid, twice = a + b, 2 * den
    acc, dacc, scale = coeffs[-1], 0, 1
    for c in reversed(coeffs[:-1]):
        scale *= twice
        dacc = dacc * mid + acc
        acc = acc * mid + c * scale
    step = (b - a) * dacc
    if not step:
        return None
    return min(max(((step - acc) << (levels - 1)) // step, 0),
               (1 << levels) - 1)


def _refine_on_grid(coeffs: list[int], a: int, b: int, den: int,
                    width: Fraction, lead: int) -> RatInterval:
    """Shrink the open (a/den, b/den), which holds exactly one root of
    the squarefree integer polynomial coeffs, below width, to the cell
    of the bisection grid that halving reaches.

    At most one end may be a root: the sign of coeffs left of the inner
    root is read off whichever end is not.  Cells are span/den wide,
    span = b - a, den doubling per level.  A Newton step guesses the
    cell `jump` levels down, jump starting at the bits by which the cell
    is narrower than 1, as from a cell 2^-k wide the step is good to
    about 2^-2k.  With lead, the leading coefficient, the root is tested
    once against its candidate k/lead when the box is first no wider
    than 1/lead, going on past width until then unless the sieve shows
    there is no rational root; lead = 0 skips the test.
    """
    if width <= 0:
        raise ValueError("refinement width must be positive")
    sa, sb = sign_at(coeffs, a, den), sign_at(coeffs, b, den)
    if sa == sb:
        raise IdentityViolatedError(
            "enclosure endpoints must bracket a sign change")
    left = sa or -sb
    wn, wd = width.numerator, width.denominator
    span, jump = b - a, max(den.bit_length() - (b - a).bit_length(), 2)
    box = None  # the box at the requested width, or the rational root
    while True:
        if box is None and span * wd <= wn * den:
            box = RatInterval(Fraction(a, den), Fraction(b, den))
            if lead and span * lead > den and _no_rational_root(coeffs):
                lead = 0
        if lead and span * lead <= den:
            box = _rational_root(coeffs, lead, a, b, den) or box
            lead = 0
        if box is not None and not lead:
            return box
        levels = min(jump, _levels(span * lead, den) if lead else jump,
                     _levels(span * wd, wn * den) if box is None else jump)
        if levels > 1:
            i = _newton_cell(coeffs, a, b, den, levels)
            if i is not None:
                lo, fine = (a << levels) + i * span, den << levels
                if sign_at(coeffs, lo, fine) * sign_at(
                        coeffs, lo + span, fine) < 0:
                    a, b, den, jump = lo, lo + span, fine, 2 * jump
                    continue
            jump = max(jump // 2, 2)
        mid = a + b
        a, b, den = 2 * a, 2 * b, 2 * den
        s = sign_at(coeffs, mid, den)
        if s == 0:
            return RatInterval.point(Fraction(mid, den))
        # simple root: the half whose ends differ in sign keeps it
        if s == left:
            a = mid
        else:
            b = mid
