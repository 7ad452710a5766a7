"""Brute-force combinatorial oracles for the pair-table minors.

Every minor of the pair table of a discrete measure has a second life
as a sum over tuples of support points, weighted by squared Vandermonde
factors over products of pairwise sums.  This module evaluates those
sums by literal enumeration and compares them against the
determinants, so each side checks the other through an independent
route.  Every summand is symmetric in its slots, so the sums run over
subsets of the support, not tuples.

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
    corner[k]       = corner split sum = (t_k u_k - u_{k-1} t_{k+1}) / 2^k
    inner[k]        = inner split sum  = (u_k v_k - v_{k-1} u_{k+1}) / 2^k

The split sums are Cauchy-Binet sums for the pair table, with the
Cauchy determinant of 1/(x + y): one term per ordered pair (A, B) of
k-subsets of the support, A and B free to share points,

    corner[k] = sum_(A,B) vand(A)^2 vand(B)^2 W(A) W(B) / cross(A, B)
    inner[k]  = the same terms times P(A) P(B)

with W and P the products of the weights and of the points, and
cross(A, B) = prod_{a in A, b in B} (x_a + x_b).  They regroup the sum
over ordered 2k-tuples x, over (2k)!, of prod w times every split of
the slots into halves I, I^c, weighted vand_I^2 vand_{I^c}^2 gamma_I
gamma_{I^c} / gamma(x) = vand_I^2 vand_{I^c}^2 / cross(I, I^c); a half
that repeats a point zeroes its vand.  Past the support there is no
pair, and both sums are 0.

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
        if any(b <= a for a, b in zip((0, *self.points), self.points)):
            raise ValueError("support must be strictly increasing and positive")
        if any(w == 0 for w in self.weights):
            raise ValueError("weights must be nonzero")

    @property
    def size(self) -> int:
        return len(self.points)


def measure_table(mu: DiscreteMeasure, max_order: int) -> BimomentTable:
    # total mass is irrelevant to every minor this module checks
    return table_from_support(mu.points, mu.weights, Fraction(1), max_order)


def _vand(xs) -> Fraction:
    return prod((b - a for a, b in itertools.combinations(xs, 2)),
                start=Fraction(1))


def _gamma(xs) -> Fraction:
    return prod((a + b for a, b in itertools.combinations(xs, 2)),
                start=Fraction(1))


def _subsets(mu: DiscreteMeasure, k: int):
    """(points, vand(x)^2 prod w, prod x) for each k-subset x."""
    for idx in itertools.combinations(range(mu.size), k):
        xs = [mu.points[i] for i in idx]
        yield (xs, _vand(xs) ** 2 * prod((mu.weights[i] for i in idx),
                                         start=Fraction(1)),
               prod(xs, start=Fraction(1)))


def _cross(a, b) -> Fraction:
    return prod((x + y for x in a for y in b), start=Fraction(1))


def heine_sums(mu: DiscreteMeasure, k_max: int) -> tuple[
        tuple[Fraction, ...], tuple[Fraction, ...], tuple[Fraction, ...]]:
    """(u, v, t) for k = 0..k_max, one term per k-subset of the support."""
    u, v, t = [Fraction(1)], [Fraction(1)], [Fraction(1)]
    for k in range(1, k_max + 1):
        terms = [(base / _gamma(xs), px) for xs, base, px in _subsets(mu, k)]
        u.append(sum((b for b, _ in terms), Fraction(0)))
        v.append(sum((b * px for b, px in terms), Fraction(0)))
        t.append(sum((b / px for b, px in terms), Fraction(0)))
    return tuple(u), tuple(v), tuple(t)


def split_sums(mu: DiscreteMeasure, k_max: int) -> tuple[
        tuple[Fraction, ...], tuple[Fraction, ...]]:
    """(corner, inner) split sums for k = 0..k_max, one term per ordered
    pair of k-subsets of the support."""
    corner, inner = [Fraction(1)], [Fraction(1)]
    for k in range(1, k_max + 1):
        terms = [(wa * wb / _cross(a, b), pa * pb) for (a, wa, pa), (b, wb, pb)
                 in itertools.product(_subsets(mu, k), repeat=2)]
        corner.append(sum((c for c, _ in terms), Fraction(0)))
        inner.append(sum((c * p for c, p in terms), Fraction(0)))
    return tuple(corner), tuple(inner)


def summand_count(support: int, k_max: int) -> int:
    """Terms run_checks sums at this shape: C(s, k) subsets for k up to
    k_max + 1, C(s, k)^2 pairs of them for k up to k_max, s^3 for the
    Cauchy matrix and one Cauchy term."""
    subsets = sum(comb(support, k) for k in range(1, k_max + 2))
    pairs = sum(comb(support, k) ** 2 for k in range(1, k_max + 1))
    return subsets + pairs + support ** 3 + 1


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
        mu = self.measure
        return {"measure": {"points": [format_rational(x) for x in mu.points],
                            "weights": [format_rational(w)
                                        for w in mu.weights]},
                "all_pass": self.all_pass,
                "rows": [{"identity": r.name, "k": r.k, "lhs": r.lhs,
                          "rhs": r.rhs, "pass": r.passed} for r in self.rows]}


def _row(name: str, k: int, lhs: Fraction, rhs: Fraction) -> CheckRow:
    return CheckRow(name, k, format_rational(lhs), format_rational(rhs),
                    lhs == rhs)


def run_checks(mu: DiscreteMeasure, k_max: int) -> CheckReport:
    """Compare every minor against its tuple-sum oracle up to size k_max."""
    s = mu.size
    mm = moment_minors(measure_table(mu, k_max))
    u, v, t = heine_sums(mu, k_max + 1)
    corner, inner = split_sums(mu, k_max)
    rows = []
    for k in range(1, k_max + 1):
        rows.append(_row("shifted_factorization", k, mm.shifted[k],
                         u[k] ** 2 / 2 ** k))
        rows.append(_row("beta_shifted_factorization", k, mm.beta_shifted[k],
                         u[k] * u[k - 1] / 2 ** (k - 1)))
        rows.append(_row("beta_inner_factorization", k, mm.beta_inner[k],
                         u[k] * v[k - 1] / 2 ** (k - 1)))
        rows.append(_row("corner_split_sum", k, mm.corner[k], corner[k]))
        rows.append(_row("corner_pair_form", k, mm.corner[k],
                         (t[k] * u[k] - u[k - 1] * t[k + 1]) / 2 ** k))
        rows.append(_row("inner_split_sum", k, mm.inner[k], inner[k]))
        rows.append(_row("inner_pair_form", k, mm.inner[k],
                         (u[k] * v[k] - v[k - 1] * u[k + 1]) / 2 ** k))
        if k > s:
            rows.append(_row("corner_vanishes", k, mm.corner[k],
                             Fraction(0)))
    if all(w < 0 for w in mu.weights):
        for k in range(1, min(k_max, s) + 1):
            rows.append(CheckRow("u_sign_alternates", k,
                                 format_rational(u[k]), f"sign {(-1) ** k}",
                                 u[k] != 0 and (u[k] > 0) == (k % 2 == 0)))
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
