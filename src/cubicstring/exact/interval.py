"""Rational intervals, and enclosures on integer ends: a polynomial over a
box, and the quotient of two enclosures.

RatInterval is the one representation of a computed value, from root
isolation to output: an isolated eigenvalue, a residue, or an exact
rational, which is the point interval lo == hi.  The enclosures work on
integers and take no gcd.  eval_interval returns the ends of Horner's
rule over a box [a/den, b/den] as integers over one scale that any
polynomials of one degree share, so the scale cancels from their
quotient; divide_ends builds the quotient's two ends, each one Fraction,
by the signs of the operands.  Every enclosure contains the true value,
so a result strictly on one side of zero is a proof of sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import Polynomial


@dataclass(frozen=True)
class RatInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @classmethod
    def point(cls, x) -> "RatInterval":
        x = Fraction(x)
        return cls(x, x)

    @property
    def width(self) -> Fraction:
        """hi - lo; zero exactly when the value is known exactly."""
        return self.hi - self.lo

    def is_negative(self) -> bool:
        return self.hi < 0

    def is_positive(self) -> bool:
        return self.lo > 0

    def sign_definite(self) -> bool:
        return self.is_negative() or self.is_positive()


def eval_interval(p: Polynomial, a: int, b: int, den: int,
                  degree: int) -> tuple[int, int]:
    """Integer ends (lo, hi) of Horner's rule on interval products and
    sums over the box [a/den, b/den], den > 0: p lies in
    [lo, hi] / (L den^degree) there, L = p.denominator, for any degree
    at least p.degree.  After j steps the running ends sit over
    L den^(j + degree - p.degree), so each step is integer products and
    no gcd: two when the box is not negative, where the signs of the
    running ends pick the products, else four with a min and a max."""
    coeffs = list(p.numerators)
    if not coeffs:
        return 0, 0
    scale = den ** (degree - len(coeffs) + 1)
    lo = hi = coeffs.pop() * scale
    for c in reversed(coeffs):
        scale *= den
        if a >= 0:
            lo, hi = (lo * (a if lo >= 0 else b) + c * scale,
                      hi * (b if hi >= 0 else a) + c * scale)
        else:
            products = (lo * a, lo * b, hi * a, hi * b)
            lo, hi = min(products) + c * scale, max(products) + c * scale
    return lo, hi


def divide_ends(num: tuple[int, int], num_scale: int, d: tuple[int, int],
                d_scale: int) -> RatInterval:
    """(num / num_scale) / (d / d_scale) for integer end pairs and
    positive scales, one Fraction per end by the sign rule: over a
    positive d, num's low end divides by d's high end when it is not
    negative, else by its low end, and num's high end by d's low end when
    it is not negative, else by its high end; a negative d negates both.
    A ZeroDivisionError when d holds zero."""
    (nlo, nhi), (dlo, dhi) = num, d
    if dhi < 0:
        nlo, nhi, dlo, dhi = -nhi, -nlo, -dhi, -dlo
    elif dlo <= 0:
        raise ZeroDivisionError("division by an interval containing zero")
    return RatInterval(
        Fraction(nlo * d_scale, (dhi if nlo >= 0 else dlo) * num_scale),
        Fraction(nhi * d_scale, (dlo if nhi >= 0 else dhi) * num_scale))
