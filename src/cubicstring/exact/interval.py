"""Rational intervals, and one enclosure of a polynomial over a box.

RatInterval is the one representation of a computed value, from root
isolation to output: an isolated eigenvalue, a residue, or an exact
rational, which is the point interval lo == hi.  eval_interval and /
return intervals guaranteed to contain the true value, so a result
strictly on one side of zero is a proof of sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import Polynomial
from .rational import over_common_denominator


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

    def __truediv__(self, o: "RatInterval") -> "RatInterval":
        """The hull of the four quotients of the ends."""
        if not o.sign_definite():
            raise ZeroDivisionError("division by an interval containing zero")
        q = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return RatInterval(min(q), max(q))

    def is_negative(self) -> bool:
        return self.hi < 0

    def is_positive(self) -> bool:
        return self.lo > 0

    def sign_definite(self) -> bool:
        return self.is_negative() or self.is_positive()


def eval_interval(p: Polynomial, box: RatInterval) -> RatInterval:
    """Horner's rule on interval products and sums over box, on integers:
    over the lcm L of p's coefficients and one denominator den of the
    ends, the running ends after j steps sit over L den^j, so each step
    is four integer products with a min and a max, and no gcd."""
    coeffs, lcd = list(p.numerators), p.denominator
    (a, b), den = over_common_denominator((box.lo, box.hi))
    lo = hi = coeffs.pop() if coeffs else 0
    scale = 1
    for c in reversed(coeffs):
        scale *= den
        products = (lo * a, lo * b, hi * a, hi * b)
        lo, hi = min(products) + c * scale, max(products) + c * scale
    return RatInterval(Fraction(lo, lcd * scale), Fraction(hi, lcd * scale))
