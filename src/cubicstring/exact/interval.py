"""Interval arithmetic over rational endpoints.

Used to certify signs of polynomial expressions evaluated on a root
enclosure: every operation returns an interval guaranteed to contain
the true value, so a result interval strictly on one side of zero is a
proof of sign.
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
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __add__(self, other) -> "RatInterval":
        o = _coerce(other)
        return RatInterval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __mul__(self, other) -> "RatInterval":
        o = _coerce(other)
        products = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return RatInterval(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatInterval":
        o = _coerce(other)
        if o.contains_zero():
            raise ZeroDivisionError("division by an interval containing zero")
        inv = RatInterval(1 / o.hi, 1 / o.lo)
        return self * inv

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def is_negative(self) -> bool:
        return self.hi < 0

    def is_positive(self) -> bool:
        return self.lo > 0

    def sign_definite(self) -> bool:
        return self.is_negative() or self.is_positive()


def _coerce(x) -> RatInterval:
    if isinstance(x, RatInterval):
        return x
    return RatInterval.point(x)


def eval_interval(p: Polynomial, box: RatInterval) -> RatInterval:
    """Horner evaluation of p over an interval argument."""
    acc = RatInterval.point(0)
    for c in reversed(p.coefficients):
        acc = acc * box + RatInterval.point(c)
    return acc
