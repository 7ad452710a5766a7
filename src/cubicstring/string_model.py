"""The discrete cubic string: point masses on a line.

A configuration is n >= 1 point masses m_1..m_n at strictly increasing
positions x_1 < ... < x_n.  It is stored translation-ready as the n - 1
positive gaps l_k = x_{k+1} - x_k plus the anchor x_n, because every
spectral quantity depends on the gaps alone.

Conserved quantities of the associated isospectral flow:
    M       total mass, sum of m_k
    M_plus  first moment, sum of m_k x_k
    M_j     for j = 1..n, the sum over j-subsets i_1 < ... < i_j of
            (prod of the masses) * (prod over consecutive pairs of the
            squared distances (x_{i_a} - x_{i_{a+1}})^2)
M_1 coincides with M.  The M_j are, up to the factor 2(-z)^j, the
coefficients of the spectral polynomial, which is why the flow keeps
them constant; invariant_masses sums them by a recurrence on integers,
without that polynomial.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    EmptyStringError,
    NonPositiveGapError,
    NonPositiveMassError,
)
from .exact import format_rational, parse_rational, parse_rational_list
from .exact.rational import over_common_denominator
from .record import Record


class CubicString(Record):
    masses: tuple[Fraction, ...]
    gaps: tuple[Fraction, ...]
    anchor: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "masses", tuple(Fraction(m) for m in self.masses))
        object.__setattr__(self, "gaps", tuple(Fraction(g) for g in self.gaps))
        object.__setattr__(self, "anchor", Fraction(self.anchor))
        if len(self.gaps) != max(len(self.masses) - 1, 0):
            raise ValueError(
                f"{len(self.masses)} masses need {len(self.masses) - 1} gaps, "
                f"got {len(self.gaps)}")

    @property
    def n(self) -> int:
        return len(self.masses)


def validate(s: CubicString) -> None:
    """Check positivity invariants; structural shape is checked at construction."""
    if s.n == 0:
        raise EmptyStringError("a string needs at least one mass")
    for m in s.masses:
        if m <= 0:
            raise NonPositiveMassError(f"mass {m} is not positive")
    for g in s.gaps:
        if g <= 0:
            raise NonPositiveGapError(f"gap {g} is not positive")


def positions(s: CubicString) -> tuple[Fraction, ...]:
    """Mass positions x_1 < ... < x_n, with x_n = anchor."""
    out = [s.anchor]
    for g in reversed(s.gaps):
        out.append(out[-1] - g)
    return tuple(reversed(out))


class ConservedSet(Record):
    total_mass: Fraction
    first_moment: Fraction
    higher: tuple[Fraction, ...]  # M_1..M_n; M_1 is the total mass


def invariant_masses(masses, xs) -> list[tuple[int, int]]:
    """The chain invariants M_1..M_n of the masses at the increasing
    positions xs, rationals or doubles, each as an integer pair
    (N_j, dm^j dx^(2j-2)), dm and dx the common denominators of the
    masses and of the positions: N_j / (dm^j dx^(2j-2)) is M_j exactly.

    With S_1(i) = m_i and S_j(i) = m_i C(i), M_j sums S_j.  A, B and C
    hold, over i' < i, the sums of S_(j-1)(i'), S_(j-1)(i') d and
    S_(j-1)(i') d^2, d the distance from i' to i: crossing a gap g
    makes C += 2gB + g^2 A and B += gA, and then A += S_(j-1)(i).  That
    is O(n^2) products, all on the integer numerators over dm and dx,
    with no gcd and every term positive.

    Meant for strings of doubles, which is all evolve sees: their
    denominators are powers of two, so dm and dx stay small.  On a
    string whose exact operands cancel, as recovered strings' do, the
    numerators carry dm^n dx^(2n-2) in full: on
    recover(random_spectral(32, 7)) it took 177 s, where the crossing
    and its phi_xx take 0.19 s.
    """
    ms, dm = over_common_denominator(masses)
    ps, dx = over_common_denominator(xs)
    steps = [b - a for a, b in zip(ps, ps[1:])]
    n = len(ms)
    level, den = ms, dm
    out = [(sum(ms), dm)]
    for j in range(1, n):
        # S_(j+1)(i), nonzero from i = j, off S_j, nonzero from j - 1
        a = b = c = 0
        nxt = [0] * j
        for i in range(j, n):
            a += level[i - 1]
            g = steps[i - 1]
            ga = g * a
            c += g * (2 * b + ga)
            b += ga
            nxt.append(ms[i] * c)
        level, den = nxt, den * dm * dx * dx
        out.append((sum(nxt), den))
    return out


# -- wire format -------------------------------------------------------

def string_to_dict(s: CubicString) -> dict:
    return {
        "masses": [format_rational(m) for m in s.masses],
        "gaps": [format_rational(g) for g in s.gaps],
        "anchor": format_rational(s.anchor),
    }


def string_from_dict(d: dict) -> CubicString:
    try:
        masses = parse_rational_list(d, "masses")
        gaps = parse_rational_list(d, "gaps")
        anchor = parse_rational(d.get("anchor", "0"))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed string object: {exc}") from exc
    return CubicString(masses, gaps, anchor)
