"""Dense univariate polynomials over exact rationals.

Coefficients are fractions.Fraction, stored low degree first in an
immutable tuple with no trailing zeros.  The zero polynomial stores an
empty tuple and reports degree -1.  All arithmetic is exact; nothing in
here ever touches floats.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]


def _as_fraction(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected an exact scalar, got {type(c).__name__}")


class Polynomial:
    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs: tuple[Fraction, ...] = tuple(cs)

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

    # -- structure ----------------------------------------------------

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def coefficient(self, j: int) -> Fraction:
        """Coefficient of z**j (zero outside the stored range)."""
        if j < 0:
            raise ValueError("polynomial exponents are non-negative")
        if j >= len(self._coeffs):
            return Fraction(0)
        return self._coeffs[j]

    @property
    def leading(self) -> Fraction:
        return self._coeffs[-1] if self._coeffs else Fraction(0)

    def is_zero(self) -> bool:
        return not self._coeffs

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self._coeffs))

    def __sub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Polynomial.zero()
            return Polynomial(tuple(c * other for c in self._coeffs))
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return Polynomial.zero()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Polynomial(out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    # -- calculus and evaluation ----------------------------------------

    def __call__(self, x: Scalar) -> Fraction:
        """Evaluate by Horner's rule."""
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(j * c for j, c in enumerate(self._coeffs) if j))

    def difference_quotient(self, lam: Scalar) -> "Polynomial":
        """(p(z) - p(lam)) / (z - lam), computed by synthetic division."""
        d = self.degree
        if d < 1:
            return Polynomial.zero()
        lam = _as_fraction(lam)
        out = [Fraction(0)] * d
        out[d - 1] = self._coeffs[d]
        for j in range(d - 1, 0, -1):
            out[j - 1] = self._coeffs[j] + lam * out[j]
        return Polynomial(out)

    def __repr__(self) -> str:
        if self.is_zero():
            return "Polynomial(0)"
        parts = []
        for j, c in enumerate(self._coeffs):
            if c == 0:
                continue
            if j == 0:
                parts.append(str(c))
            elif j == 1:
                parts.append(f"{c}*z")
            else:
                parts.append(f"{c}*z^{j}")
        return "Polynomial(" + " + ".join(parts) + ")"
