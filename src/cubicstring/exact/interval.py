"""Interval arithmetic over rational endpoints.

RatInterval is the one representation of a computed value, from root
isolation to output: an isolated eigenvalue, a residue, or an exact
rational, which is the point interval lo == hi.  Every operation
returns an interval guaranteed to contain the true value, so a result
interval strictly on one side of zero is a proof of sign.
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

    def __add__(self, o: "RatInterval") -> "RatInterval":
        return RatInterval(self.lo + o.lo, self.hi + o.hi)

    def __mul__(self, o: "RatInterval") -> "RatInterval":
        products = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return RatInterval(min(products), max(products))

    def __truediv__(self, o: "RatInterval") -> "RatInterval":
        if o.contains_zero():
            raise ZeroDivisionError("division by an interval containing zero")
        return self * RatInterval(1 / o.hi, 1 / o.lo)

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def is_negative(self) -> bool:
        return self.hi < 0

    def is_positive(self) -> bool:
        return self.lo > 0

    def sign_definite(self) -> bool:
        return self.is_negative() or self.is_positive()


def eval_interval(p: Polynomial, box: RatInterval) -> RatInterval:
    """Horner evaluation of p over an interval argument."""
    acc = RatInterval.point(0)
    for c in reversed(p.coefficients):
        acc = acc * box + RatInterval.point(c)
    return acc
