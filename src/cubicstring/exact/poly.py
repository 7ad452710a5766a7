"""Dense univariate polynomials over exact rationals, stored on integers.

A polynomial is a tuple of integer numerators, low degree first with no
trailing zeros, over one positive denominator, in canonical form: the
denominator is the lcm of the coefficients' denominators, or, the same
thing, the numerators' content is coprime to it.  So equal polynomials
store equal integers, and `==` and `hash` read them.  The zero
polynomial stores no numerators over 1 and reports degree -1.

Every result is built on integers over one common denominator, and one
gcd brings it to canonical form: a sum over the lcm of the two
denominators, a product over their product.  `linear_combination` is
the general step, a sum of rational multiples of polynomials shifted by
powers of z, with one lcm and one gcd; the crossing steps of the string
are built from it.  Evaluation is a homogeneous integer
Horner that builds one Fraction at the end.  `coefficients`,
`coefficient(j)` and `leading` build Fractions only when asked.  All
arithmetic is exact; nothing in here ever touches floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

Scalar = Union[int, Fraction]


def _as_fraction(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected an exact scalar, got {type(c).__name__}")


def _canonical(nums: list[int], den: int) -> "Polynomial":
    """The polynomial nums / den, den nonzero: trailing zeros dropped and
    one gcd divided out."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return _raw((), 1)
    # the leading numerator first: on rationalized doubles a gcd begun at
    # the constant term stays as wide as the power of 2 in den
    g = gcd(den, nums[-1], *nums)
    if den < 0:
        g = -g
    if g != 1:
        nums = [c // g for c in nums]
        den //= g
    return _raw(tuple(nums), den)


def _raw(nums: tuple[int, ...], den: int) -> "Polynomial":
    p = object.__new__(Polynomial)
    p._nums = nums
    p._den = den
    return p


class Polynomial:
    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        p = _canonical([c.numerator * (den // c.denominator) for c in cs],
                       den)
        self._nums: tuple[int, ...] = p._nums
        self._den: int = p._den

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def x(cls) -> "Polynomial":
        """The variable itself."""
        return cls((0, 1))

    @classmethod
    def constant(cls, c: Scalar) -> "Polynomial":
        return cls((c,))

    @staticmethod
    def from_integers(nums: Iterable[int], den: int = 1) -> "Polynomial":
        """The polynomial with coefficients nums[j] / den, den nonzero."""
        if not den:
            raise ZeroDivisionError("polynomial over a zero denominator")
        return _canonical(list(nums), den)

    # -- structure ----------------------------------------------------

    @property
    def numerators(self) -> tuple[int, ...]:
        """The integer numerators, low degree first, over `denominator`."""
        return self._nums

    @property
    def denominator(self) -> int:
        """The lcm of the coefficients' denominators (1 for zero)."""
        return self._den

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(c, den) for c in self._nums)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self._nums) - 1

    def coefficient(self, j: int) -> Fraction:
        """Coefficient of z**j (zero outside the stored range)."""
        if j < 0:
            raise ValueError("polynomial exponents are non-negative")
        if j >= len(self._nums):
            return Fraction(0)
        return Fraction(self._nums[j], self._den)

    @property
    def leading(self) -> Fraction:
        return (Fraction(self._nums[-1], self._den) if self._nums
                else Fraction(0))

    def is_zero(self) -> bool:
        return not self._nums

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return linear_combination((self, 1, 0), (other, 1, 0))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _raw(tuple(-c for c in self._nums), self._den)

    def __sub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return linear_combination((self, 1, 0), (other, -1, 0))

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return linear_combination((self, other, 0))
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._nums, other._nums
        if not a or not b:
            return _raw((), 1)
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b, i):
                    out[j] += ca * cb
        return _canonical(out, self._den * other._den)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self._nums, self._den))

    def __bool__(self) -> bool:
        return bool(self._nums)

    # -- calculus and evaluation ----------------------------------------

    def __call__(self, x: Scalar) -> Fraction:
        """Evaluate by a homogeneous Horner's rule on integers: at x = u/v,
        sum c_j u^j v^(d-j) over den v^d, d the degree."""
        x = _as_fraction(x)
        u, v = x.numerator, x.denominator
        nums = self._nums
        if not nums:
            return Fraction(0)
        acc, scale = nums[-1], 1
        for c in nums[-2::-1]:
            scale *= v
            acc = acc * u + c * scale
        return Fraction(acc, self._den * scale)

    def derivative(self) -> "Polynomial":
        return _canonical([j * c for j, c in enumerate(self._nums) if j],
                          self._den)

    def difference_quotient(self, lam: Scalar) -> "Polynomial":
        """(p(z) - p(lam)) / (z - lam), by synthetic division on integers:
        at lam = u/v the quotient's coefficient of z^i is
        O_i / (den v^(d-1-i)), with O_(d-1) = c_d and
        O_(i-1) = c_i v^(d-i) + u O_i, so over den v^(d-1) its
        numerator is O_i v^i."""
        d = self.degree
        if d < 1:
            return _raw((), 1)
        lam = _as_fraction(lam)
        u, v = lam.numerator, lam.denominator
        nums = self._nums
        acc, scale = nums[d], 1
        out = [0] * d
        out[d - 1] = acc
        for k in range(d - 1, 0, -1):
            scale *= v
            acc = nums[k] * scale + u * acc
            out[k - 1] = acc
        if v != 1:
            scale = 1
            for k in range(1, d):
                scale *= v
                out[k] *= scale
        return _canonical(out, self._den * v ** (d - 1))

    def __repr__(self) -> str:
        if self.is_zero():
            return "Polynomial(0)"
        parts = []
        for j, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if j == 0:
                parts.append(str(c))
            elif j == 1:
                parts.append(f"{c}*z")
            else:
                parts.append(f"{c}*z^{j}")
        return "Polynomial(" + " + ".join(parts) + ")"


def linear_combination(*terms: tuple[Polynomial, Scalar, int]) -> Polynomial:
    """sum c z^shift p over the terms (p, c, shift), shift >= 0, on
    integers: each term c p is num / (p's denominator times c's) with
    the gcd h of c's numerator and p's denominator cancelled first, the
    numerators are scaled to the lcm of those denominators, and one gcd
    brings the sum to canonical form."""
    scaled = []
    for p, c, shift in terms:
        h = gcd(c.numerator, p._den)
        scaled.append((p._nums, c.numerator // h,
                       (p._den // h) * c.denominator, shift))
    den = lcm(*(d for _, _, d, _ in scaled))
    out = [0] * max((len(nums) + shift for nums, _, _, shift in scaled),
                   default=0)
    for nums, f, d, shift in scaled:
        f *= den // d
        if f:
            for j, x in enumerate(nums, shift):
                out[j] += f * x
    return _canonical(out, den)
