"""Laurent tails at z = infinity with honest truncation tracking.

A LaurentSeries stores finitely many exact coefficients {exponent:
Fraction} plus a low_cutoff.  Coefficients at exponents >= low_cutoff
are exact; everything below the cutoff is unknown (truncated away).  A
cutoff of None means the series is an exact finite Laurent polynomial.

Arithmetic propagates the cutoff pessimistically: the result never
claims a coefficient that could have been contaminated by a discarded
tail.  Order claims (is_big_O) refuse to answer rather than guess when
the unknown region overlaps the exponents being constrained.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

from .poly import Polynomial, Scalar, _as_fraction

_NEG_INF = None  # alias used in comments only


class LaurentSeries:
    __slots__ = ("_coeffs", "_cutoff")

    def __init__(self, coeffs: Mapping[int, Scalar] = (), low_cutoff: int | None = None):
        cleaned = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for j, c in items:
            c = _as_fraction(c)
            if c != 0:
                cleaned[int(j)] = c
        if low_cutoff is not None:
            for j in cleaned:
                if j < low_cutoff:
                    raise ValueError("stored exponent below the truncation cutoff")
        self._coeffs = cleaned
        self._cutoff = low_cutoff

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "LaurentSeries":
        return cls({j: c for j, c in enumerate(p.coefficients)}, None)

    @classmethod
    def zero(cls) -> "LaurentSeries":
        return cls({}, None)

    # -- structure ----------------------------------------------------

    @property
    def low_cutoff(self) -> int | None:
        return self._cutoff

    @property
    def is_exact(self) -> bool:
        return self._cutoff is None

    def coefficients(self) -> dict[int, Fraction]:
        return dict(self._coeffs)

    def coefficient(self, j: int) -> Fraction:
        """Exact coefficient of z**j; refuses exponents below the cutoff."""
        if self._cutoff is not None and j < self._cutoff:
            raise ValueError(f"coefficient of z**{j} was truncated away "
                             f"(cutoff {self._cutoff})")
        return self._coeffs.get(j, Fraction(0))

    def order(self) -> int | None:
        """Largest exponent carrying a nonzero stored coefficient."""
        return max(self._coeffs) if self._coeffs else None

    def _top(self) -> int | None:
        """Highest exponent that may be nonzero (stored or hidden)."""
        if self._coeffs:
            return max(self._coeffs)
        if self._cutoff is not None:
            return self._cutoff - 1
        return None

    # -- arithmetic -----------------------------------------------------

    @staticmethod
    def _coerce(other) -> "LaurentSeries":
        if isinstance(other, LaurentSeries):
            return other
        if isinstance(other, Polynomial):
            return LaurentSeries.from_polynomial(other)
        if isinstance(other, (int, Fraction)):
            return LaurentSeries({0: other}, None)
        return None

    def __add__(self, other) -> "LaurentSeries":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._cutoff is None:
            cut = o._cutoff
        elif o._cutoff is None:
            cut = self._cutoff
        else:
            cut = max(self._cutoff, o._cutoff)
        out = dict(self._coeffs)
        for j, c in o._coeffs.items():
            out[j] = out.get(j, Fraction(0)) + c
        if cut is not None:
            out = {j: c for j, c in out.items() if j >= cut}
        return LaurentSeries(out, cut)

    __radd__ = __add__

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries({j: -c for j, c in self._coeffs.items()}, self._cutoff)

    def __sub__(self, other) -> "LaurentSeries":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "LaurentSeries":
        o = self._coerce(other)
        return o + (-self)

    def __mul__(self, other) -> "LaurentSeries":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # Tail contamination: the unknown part of one factor (exponents
        # below its cutoff) times the top of the other factor reaches up
        # to cutoff - 1 + top, so nothing at or below that is trustworthy.
        cuts = []
        if self._cutoff is not None:
            t = o._top()
            if t is None:          # o is exactly zero
                return LaurentSeries.zero()
            cuts.append(self._cutoff + t)
        if o._cutoff is not None:
            t = self._top()
            if t is None:
                return LaurentSeries.zero()
            cuts.append(o._cutoff + t)
        cut = max(cuts) if cuts else None
        out: dict[int, Fraction] = {}
        for i, a in self._coeffs.items():
            for j, b in o._coeffs.items():
                k = i + j
                if cut is None or k >= cut:
                    out[k] = out.get(k, Fraction(0)) + a * b
        return LaurentSeries(out, cut)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._coeffs == o._coeffs and self._cutoff == o._cutoff

    def __hash__(self) -> int:
        return hash((frozenset(self._coeffs.items()), self._cutoff))

    # -- views ----------------------------------------------------------

    def reflected(self) -> "LaurentSeries":
        """Coefficients of f(-z)."""
        return LaurentSeries({j: (c if j % 2 == 0 else -c)
                              for j, c in self._coeffs.items()}, self._cutoff)

    def truncated(self, cutoff: int) -> "LaurentSeries":
        new_cut = cutoff if self._cutoff is None else max(cutoff, self._cutoff)
        return LaurentSeries({j: c for j, c in self._coeffs.items() if j >= new_cut},
                             new_cut)

    def is_big_O(self, j: int) -> bool:
        """Certified f = O(z**j) as z -> infinity.

        False as soon as a stored coefficient above j is nonzero; True
        when all exponents above j are visibly zero.  Raises only when
        the truncation hides part of the constrained range and nothing
        visible already refutes the claim.
        """
        if any(e > j for e in self._coeffs):
            return False
        if self._cutoff is not None and self._cutoff > j + 1:
            raise ValueError(f"cutoff {self._cutoff} too high to certify "
                             f"O(z**{j}); rebuild with a deeper tail")
        return True

    # -- projections ------------------------------------------------------

    def project_nonneg(self) -> Polynomial:
        """Polynomial part: sum of terms with exponent >= 0."""
        if self._cutoff is not None and self._cutoff > 0:
            raise ValueError("cutoff hides part of the polynomial range")
        if not self._coeffs:
            return Polynomial.zero()
        top = max(self._coeffs)
        if top < 0:
            return Polynomial.zero()
        return Polynomial(tuple(self._coeffs.get(j, Fraction(0))
                                for j in range(top + 1)))

    def project_pos(self) -> Polynomial:
        """Strictly positive part (the polynomial part minus its constant)."""
        p = self.project_nonneg()
        return p - p.coefficient(0)

    def __repr__(self) -> str:
        if not self._coeffs:
            body = "0"
        else:
            body = " + ".join(f"{c}*z^{j}" for j, c in sorted(self._coeffs.items(),
                                                              reverse=True))
        tail = "" if self._cutoff is None else f" + O(z^{self._cutoff - 1})"
        return f"LaurentSeries({body}{tail})"


def laurent_of_rational(num: Polynomial, den: Polynomial,
                        low_cutoff: int) -> LaurentSeries:
    """Expand num/den as a Laurent series at z = infinity down to low_cutoff.

    Descending long division: at each step the current remainder's top
    term is divided by the divisor's leading term.
    """
    if den.is_zero():
        raise ZeroDivisionError("expansion of p/0")
    if num.is_zero():
        return LaurentSeries({}, low_cutoff)
    lead_exp = den.degree
    lead_coeff = den.leading
    # remainder as an exponent->coefficient map
    rem = {j: c for j, c in enumerate(num.coefficients) if c != 0}
    out: dict[int, Fraction] = {}
    while rem:
        top = max(rem)
        exp = top - lead_exp
        if exp < low_cutoff:
            break
        c = rem[top] / lead_coeff
        out[exp] = c
        for j, dc in enumerate(den.coefficients):
            if dc == 0:
                continue
            k = exp + j
            v = rem.get(k, Fraction(0)) - c * dc
            if v == 0:
                rem.pop(k, None)
            else:
                rem[k] = v
    # an emptied remainder means the division terminated: the result is exact
    return LaurentSeries(out, low_cutoff if rem else None)
