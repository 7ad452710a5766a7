"""Brute-force combinatorial oracles for the pair-table minors.

Every minor of the pair table of a discrete measure has a second life
as a sum over tuples of support points, weighted by squared Vandermonde
factors over products of pairwise sums.  This module evaluates those
sums by literal enumeration and compares them against the
determinants, so each side checks the other through an independent
route.  Every summand is symmetric in its slots, so each sum visits
each unordered set of points once.

Notation, for a tuple x = (x_1..x_k) of support points:

    vand(x)  = prod_{i<j} (x_j - x_i)
    gamma(x) = prod_{i<j} (x_i + x_j)

The three basic sums (empty-set value 1 by convention) run over the
k-subsets x of the support; a repeated point would zero vand(x):

    u_k = sum_x vand(x)^2/gamma(x) * prod w
    v_k = same with an extra prod x_i
    t_k = same with an extra 1/prod x_i

and the minor identities checked here:

    shifted[k]      = u_k^2 / 2^k
    beta_shifted[k] = u_k u_{k-1} / 2^(k-1)
    beta_inner[k]   = u_k v_{k-1} / 2^(k-1)
    corner[k]       = split sum over 2k points  = (t_k u_k - u_{k-1} t_{k+1}) / 2^k
    inner[k]        = split sum with prod x     = (u_k v_k - v_{k-1} u_{k+1}) / 2^k

The split sum runs over multisets x of 2k support points and all ways
to split the slots into two halves I, I^c of size k:

    sum_x (1/2^d) (1/gamma(x)) [sum_I vand_I^2 vand_{I^c}^2 gamma_I gamma_{I^c}] prod w

where d is the number of points x holds twice.  This is the sum over
ordered 2k-tuples divided by (2k)!: x has (2k)!/2^d orderings, all
with the same term.  No point appears three times, since one half
would then repeat it in every split and zero the whole bracket; so for
k beyond the support size the sum is 0.

Finally the Cauchy-type identity, for a measure with s support points:

    det [ sum_a w_a y_a^i / (y_a + y_j) ]_{i,j=1..s}
        = vand(y)^3 prod y_i prod w_i / prod_{i,j} (y_i + y_j)

which is the sum over ordered s-tuples x of distinct points,
(vand(y)/s!) sum_x (prod x) vand(x)^2 / prod_{i,j} (x_i + y_j) prod w,
with its s! permutations of y added up.  The product of the x_i in
front of the squared Vandermonde is essential; dropping it breaks the
identity already for a single support point.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

from .exact import Matrix, det_exact, format_rational
from .inverse import BimomentTable, moment_minors, table_from_support


@dataclass(frozen=True)
class DiscreteMeasure:
    points: tuple[Fraction, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "points",
                           tuple(Fraction(x) for x in self.points))
        object.__setattr__(self, "weights",
                           tuple(Fraction(x) for x in self.weights))
        if len(self.points) != len(self.weights):
            raise ValueError("one weight per support point required")
        prev = Fraction(0)
        for x in self.points:
            if x <= prev:
                raise ValueError("support must be strictly increasing and positive")
            prev = x
        if any(w == 0 for w in self.weights):
            raise ValueError("weights must be nonzero")

    @property
    def size(self) -> int:
        return len(self.points)


def measure_table(mu: DiscreteMeasure, max_order: int) -> BimomentTable:
    # total mass is irrelevant to every minor this module checks
    return table_from_support(mu.points, mu.weights, Fraction(1), max_order)


def _vand(xs) -> Fraction:
    return prod((xs[j] - xs[i]
                 for i in range(len(xs)) for j in range(i + 1, len(xs))),
                start=Fraction(1))


def _gamma(xs) -> Fraction:
    return prod((xs[i] + xs[j]
                 for i in range(len(xs)) for j in range(i + 1, len(xs))),
                start=Fraction(1))


def heine_sums(mu: DiscreteMeasure, k_max: int) -> tuple[
        tuple[Fraction, ...], tuple[Fraction, ...], tuple[Fraction, ...]]:
    """(u, v, t) for k = 0..k_max, one term per k-subset of the support."""
    u, v, t = [Fraction(1)], [Fraction(1)], [Fraction(1)]
    for k in range(1, k_max + 1):
        au = av = at = Fraction(0)
        for idx in itertools.combinations(range(mu.size), k):
            xs = [mu.points[i] for i in idx]
            base = _vand(xs) ** 2 / _gamma(xs) \
                * prod((mu.weights[i] for i in idx), start=Fraction(1))
            au += base
            px = prod(xs, start=Fraction(1))
            av += base * px
            at += base / px
        u.append(au)
        v.append(av)
        t.append(at)
    return tuple(u), tuple(v), tuple(t)


def _multisets(s: int, k: int):
    """Every multiset of 2k indices from range(s), each index at most
    twice, as (indices, number of doubled indices)."""
    for d in range(max(0, 2 * k - s), k + 1):
        for doubled in itertools.combinations(range(s), d):
            rest = [i for i in range(s) if i not in doubled]
            for single in itertools.combinations(rest, 2 * k - 2 * d):
                yield doubled + doubled + single, d


def split_sum(mu: DiscreteMeasure, k: int, with_points: bool) -> Fraction:
    """Split sum for corner[k] (inner[k] when with_points), one term per
    multiset of support points weighted by 1/2^(doubled points)."""
    if k == 0:
        return Fraction(1)
    if k > mu.size:
        return Fraction(0)  # 2k slots need some point three times
    halves = list(itertools.combinations(range(2 * k), k))
    total = Fraction(0)
    for idx, d in _multisets(mu.size, k):
        xs = [mu.points[i] for i in idx]
        bracket = Fraction(0)
        for half in halves:
            a = [xs[j] for j in half]
            b = [xs[j] for j in range(2 * k) if j not in half]
            bracket += (_vand(a) ** 2 * _vand(b) ** 2
                        * _gamma(a) * _gamma(b))
        term = bracket / _gamma(xs) \
            * prod((mu.weights[i] for i in idx), start=Fraction(1))
        if with_points:
            term *= prod(xs, start=Fraction(1))
        total += term / 2 ** d
    return total


def summand_count(support: int, k_max: int) -> int:
    """Terms run_checks sums at this shape: C(s, k) subsets for k up to
    k_max + 1, multisets times C(2k, k) halves in each of the two split
    sums for k up to k_max, s^3 for the Cauchy matrix, one Cauchy term."""
    subsets = sum(comb(support, k) for k in range(1, k_max + 2))
    halves = sum(comb(support, d) * comb(support - d, 2 * k - 2 * d)
                 * comb(2 * k, k)
                 for k in range(1, k_max + 1)
                 for d in range(min(k, support) + 1))
    return subsets + 2 * halves + support ** 3 + 1


def cauchy_matrix(mu: DiscreteMeasure) -> Matrix:
    """[sum_a w_a y_a^i / (y_a + y_j)] for i, j = 1..s."""
    s = mu.size
    return Matrix([[sum((w * y ** i / (y + mu.points[j])
                         for y, w in zip(mu.points, mu.weights)), Fraction(0))
                    for j in range(s)] for i in range(1, s + 1)])


def cauchy_tuple_sum(mu: DiscreteMeasure) -> Fraction:
    """The s! ordered tuples are the permutations of the support, and
    each gives the same term."""
    y = mu.points
    return (_vand(y) ** 3 * prod(y, start=Fraction(1))
            * prod(mu.weights, start=Fraction(1))
            / prod((a + b for a in y for b in y), start=Fraction(1)))


# -- the combined report ---------------------------------------------------

@dataclass(frozen=True)
class CheckRow:
    name: str
    k: int
    lhs: str
    rhs: str
    passed: bool


@dataclass(frozen=True)
class CheckReport:
    measure: DiscreteMeasure
    rows: tuple[CheckRow, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_dict(self) -> dict:
        return {
            "measure": {
                "points": [format_rational(x) for x in self.measure.points],
                "weights": [format_rational(w) for w in self.measure.weights],
            },
            "all_pass": self.all_pass,
            "rows": [
                {"identity": r.name, "k": r.k, "lhs": r.lhs, "rhs": r.rhs,
                 "pass": r.passed}
                for r in self.rows
            ],
        }


def _row(name: str, k: int, lhs: Fraction, rhs: Fraction) -> CheckRow:
    return CheckRow(name, k, format_rational(lhs), format_rational(rhs),
                    lhs == rhs)


def run_checks(mu: DiscreteMeasure, k_max: int) -> CheckReport:
    """Compare every minor against its tuple-sum oracle up to size k_max."""
    s = mu.size
    mm = moment_minors(measure_table(mu, k_max))
    u, v, t = heine_sums(mu, k_max + 1)
    rows = []
    for k in range(1, k_max + 1):
        rows.append(_row("shifted_factorization", k, mm.shifted[k],
                         u[k] ** 2 / 2 ** k))
        rows.append(_row("beta_shifted_factorization", k, mm.beta_shifted[k],
                         u[k] * u[k - 1] / 2 ** (k - 1)))
        rows.append(_row("beta_inner_factorization", k, mm.beta_inner[k],
                         u[k] * v[k - 1] / 2 ** (k - 1)))
        b_k = mm.corner[k]
        rows.append(_row("corner_split_sum", k, b_k, split_sum(mu, k, False)))
        rows.append(_row("corner_pair_form", k, b_k,
                         (t[k] * u[k] - u[k - 1] * t[k + 1]) / 2 ** k))
        c_k = mm.inner[k]
        rows.append(_row("inner_split_sum", k, c_k, split_sum(mu, k, True)))
        rows.append(_row("inner_pair_form", k, c_k,
                         (u[k] * v[k] - v[k - 1] * u[k + 1]) / 2 ** k))
        if k > s:
            rows.append(_row("corner_vanishes", k, b_k, Fraction(0)))
    if all(w < 0 for w in mu.weights):
        for k in range(1, min(k_max, s) + 1):
            sign_ok = u[k] != 0 and (u[k] > 0) == (k % 2 == 0)
            rows.append(CheckRow("u_sign_alternates", k,
                                 format_rational(u[k]), f"sign {(-1) ** k}",
                                 sign_ok))
            rows.append(CheckRow("shifted_positive", k,
                                 format_rational(mm.shifted[k]), "> 0",
                                 mm.shifted[k] > 0))
            rows.append(CheckRow("beta_shifted_negative", k,
                                 format_rational(mm.beta_shifted[k]),
                                 "< 0", mm.beta_shifted[k] < 0))
    det_e = det_exact(cauchy_matrix(mu))
    rows.append(_row("cauchy_product_form", s, det_e, cauchy_tuple_sum(mu)))
    rows.append(CheckRow("cauchy_nonzero", s, format_rational(det_e),
                         "!= 0", det_e != 0))
    return CheckReport(mu, tuple(rows))


def random_measure(support: int, seed) -> DiscreteMeasure:
    """Deterministic measure with negative weights, as spectral data has."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    pts = tuple(itertools.accumulate(
        Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(support)))
    ws = tuple(-Fraction(rng.randint(1, 5), rng.randint(1, 3))
               for _ in range(support))
    return DiscreteMeasure(pts, ws)
