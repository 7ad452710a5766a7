"""Strict parsing and formatting of rationals for file formats, and the
two scalings that take the exact kernel from rationals to integers.

The wire form is base-10 "p" or "p/q" in ASCII digits, with an optional
leading minus and q > 0.  This is deliberately narrower than Fraction's
constructor, which would also accept decimals, exponents and any
Unicode decimal digit.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

_RATIONAL_RE = re.compile(r"^(-?[0-9]+)(?:/([0-9]+))?$")


def parse_rational(s: str) -> Fraction:
    if not isinstance(s, str):
        raise ValueError(f"expected a rational string, got {type(s).__name__}")
    m = _RATIONAL_RE.match(s.strip())
    if m is None:
        raise ValueError(f"not a rational literal: {s!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator: {s!r}")
    return Fraction(num, den)


def parse_rational_list(doc: dict, key: str) -> tuple[Fraction, ...]:
    """doc[key] as rationals; the value must be a JSON list."""
    value = doc[key]
    if not isinstance(value, list):
        raise ValueError(
            f"{key} must be a JSON list, got {type(value).__name__}")
    return tuple(parse_rational(x) for x in value)


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def over_common_denominator(xs: Sequence[Fraction]) -> tuple[list[int], int]:
    """(nums, den) with xs[i] = nums[i] / den, den the lcm of the
    denominators (1 for no values); for doubles as for rationals."""
    pairs = [x.as_integer_ratio() for x in xs]
    den = lcm(*(d for _, d in pairs))
    return [n * (den // d) for n, d in pairs], den


def content_free(ints: Sequence[int]) -> list[int]:
    """ints divided by their positive gcd; signs are kept, and zeros
    stay zeros."""
    g = gcd(*ints) or 1
    return [c // g for c in ints]
