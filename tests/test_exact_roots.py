"""Sturm isolation: counts, enclosures, exact-root identification, and
the smallest-denominator search it relies on."""

import math
import random
import sys
from fractions import Fraction as F

import pytest

from oracles import poly_product

from cubicstring.errors import IdentityViolatedError, NotSquarefreeError
from cubicstring.exact import (
    Polynomial,
    RatInterval,
    cauchy_root_bound,
    refine_enclosure,
    simplest_rational_between,
    sturm_chain,
    sturm_isolate,
)
from cubicstring.exact import roots as roots_module
from cubicstring.exact.roots import (
    integer_coefficients,
    sign_at,
    sign_changes,
)

# the isolation width where a test does not turn on it
WIDTH = F(1, 2 ** 64)


def test_chain_counts_roots_of_factored_poly():
    # (z-1)(z-2): two roots in (0, 10]
    p = Polynomial([2, -3, 1])
    chain = [integer_coefficients(q) for q in sturm_chain(p)]
    # V(a) - V(b) counts the roots in (a, b], also at a root
    v = {x: sign_changes(chain, x.numerator, x.denominator)
         for x in (F(0), F(1), F(3, 2), F(2), F(3), F(10))}
    assert v[F(0)] - v[F(10)] == 2
    assert v[F(0)] - v[F(3, 2)] == 1
    assert v[F(3, 2)] - v[F(10)] == 1
    assert v[F(3)] - v[F(10)] == 0
    assert v[F(0)] - v[F(1)] == 1 and v[F(1)] - v[F(2)] == 1
    assert v[F(2)] - v[F(10)] == 0


def _points(*xs):
    """Exact roots: point intervals."""
    return [RatInterval.point(x) for x in xs]


def test_isolation_identifies_rational_roots_exactly():
    p = Polynomial([2, -3, 1])
    roots = sturm_isolate(p, F(0), F(10), WIDTH)
    assert roots == _points(1, 2)


def test_isolation_of_irrational_roots_encloses():
    # z^2 - 2: roots +-sqrt(2); only the positive one in (0, 10]
    p = Polynomial([-2, 0, 1])
    roots = sturm_isolate(p, F(0), F(10), width=F(1, 2 ** 40))
    assert len(roots) == 1
    r = roots[0]
    assert 0 < r.width <= F(1, 2 ** 40)
    assert r.lo ** 2 < 2 < r.hi ** 2


def test_isolation_randomized_against_known_roots():
    rng = random.Random(5)
    for _ in range(20):
        k = rng.randint(1, 4)
        root_set = sorted(rng.sample(range(1, 40), k))
        p = poly_product([Polynomial([-r, 1]) for r in root_set])
        found = sturm_isolate(p, F(1, 2), F(50), WIDTH)
        assert found == _points(*root_set)


def test_squarefree_detection():
    # read off the Sturm chain: its last member is gcd(p, p')
    p = Polynomial([-1, 1])
    found = sturm_isolate(p * Polynomial([-2, 1]), F(0), F(5), WIDTH)
    assert found == _points(1, 2)
    with pytest.raises(NotSquarefreeError):
        sturm_isolate(p * p, F(0), F(5), WIDTH)
    with pytest.raises(NotSquarefreeError):
        sturm_isolate(p * p * Polynomial([-2, 1]), F(0), F(5), WIDTH)


def test_endpoint_root_rejected():
    p = Polynomial([-2, 1])
    with pytest.raises(IdentityViolatedError):
        sturm_isolate(p, F(2), F(5), WIDTH)


def test_cauchy_bound_contains_roots():
    p = poly_product([Polynomial([-r, 1]) for r in (3, 17, 29)])
    assert cauchy_root_bound(p) > 29


def test_refine_enclosure_shrinks():
    p = Polynomial([-2, 0, 1])
    (r,) = sturm_isolate(p, F(0), F(4), width=F(1, 16))
    r2 = refine_enclosure(p, r, F(1, 2 ** 100))
    assert r2.width <= F(1, 2 ** 100)
    assert r.lo <= r2.midpoint <= r.hi


def test_simplest_rational_between():
    assert simplest_rational_between(F(1, 3), F(1, 2)) == F(1, 2)
    assert simplest_rational_between(F(7, 5), F(3, 2)) == F(3, 2)
    assert simplest_rational_between(F(-1, 2), F(1, 3)) == 0
    assert simplest_rational_between(F(-5, 2), F(-7, 3)) == F(-5, 2)
    assert simplest_rational_between(F(2, 7), F(1, 3)) == F(1, 3)
    # a closed interval includes its endpoints as candidates
    assert simplest_rational_between(F(113, 36), F(355, 113)) == F(113, 36)
    # denominator minimality on a randomized family
    rng = random.Random(1)
    for _ in range(50):
        a = F(rng.randint(-50, 50), rng.randint(1, 60))
        b = a + F(1, rng.randint(1, 10 ** 6))
        s = simplest_rational_between(a, b)
        assert a <= s <= b
        for den in range(1, s.denominator):
            lo_num = -(-a.numerator * den // a.denominator)  # ceil(a*den)
            assert lo_num > b * den, (a, b, s, den)


def _recursive_simplest(lo, hi):
    """The recursive form of simplest_rational_between, one call per
    continued-fraction term: the reference for the loop."""
    if lo > hi:
        lo, hi = hi, lo
    if lo <= 0 <= hi:
        return F(0)
    if hi < 0:
        return -_recursive_simplest(-hi, -lo)
    n = math.ceil(lo)
    if n <= hi:
        return F(n)
    f = math.floor(lo)
    return f + 1 / _recursive_simplest(1 / (hi - f), 1 / (lo - f))


def test_simplest_rational_loop_matches_the_recursive_form():
    rng = random.Random(8)
    for _ in range(400):
        a = F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
        b = a + F(rng.randint(0, 10 ** 3),
                  rng.randint(1, 10 ** rng.randint(1, 30)))
        if rng.random() < 0.5:
            a, b = b, a
        assert simplest_rational_between(a, b) == _recursive_simplest(a, b)


def test_simplest_rational_between_deep_intervals():
    # 2,360 continued-fraction terms, past the default recursion limit
    p = Polynomial([-2, 0, 1])
    (r,) = sturm_isolate(p, F(0), F(4), width=F(1, 2 ** 6000))
    s = simplest_rational_between(r.lo, r.hi)
    assert r.lo <= s <= r.hi and p(s) != 0
    assert simplest_rational_between(-r.hi, -r.lo) == -s
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10 ** 4)
    try:
        assert s == _recursive_simplest(r.lo, r.hi)
    finally:
        sys.setrecursionlimit(limit)


def test_close_rational_root_is_still_found():
    # two roots closer than the default width apart force deep subdivision;
    # identification needs width below 1/den(root)^2, den(r2) = 3*2^70
    r1, r2 = F(1, 3), F(1, 3) + F(1, 2 ** 70)
    p = Polynomial([-r1, 1]) * Polynomial([-r2, 1])
    roots = sturm_isolate(p, F(0), F(1), width=F(1, 2 ** 150))
    assert roots == _points(r1, r2)


# -- reference: isolation that refines by Sturm counts at every step -------

def _v(chain, x):
    """V(x) by rational evaluation of the chain's polynomials."""
    signs = [v > 0 for v in (q(x) for q in chain) if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _reference_refine(p, chain, a, b, width):
    while b - a > width:
        mid = (a + b) / 2
        if p(mid) == 0:
            return RatInterval.point(mid)
        if _v(chain, a) - _v(chain, mid) == 1:
            b = mid
        else:
            a = mid
    guess = simplest_rational_between(a, b)
    if a < guess < b and p(guess) == 0:
        return RatInterval.point(guess)
    return RatInterval(a, b)


def _reference_isolate(p, lo, hi, width):
    """Midpoint cuts, a cut on a root kept as that root; roots in the
    open (a, b) are V(a) - V(b), less one where b is a root."""
    chain = sturm_chain(p)
    out = []
    stack = [(F(lo), F(hi))]
    while stack:
        a, b = stack.pop()
        k = _v(chain, a) - _v(chain, b) - (p(b) == 0)
        if k == 1 and (p(a) != 0 or p(b) != 0):
            out.append(_reference_refine(p, chain, a, b, width))
        elif k > 0:
            cut = (a + b) / 2
            if p(cut) == 0:
                out.append(RatInterval.point(cut))
            stack.append((a, cut))
            stack.append((cut, b))
    out.sort(key=lambda r: r.midpoint)
    return out


def _random_squarefree(rng):
    """Product of distinct rational linear factors and irreducible
    quadratics z^2 - k (k not a square), scaled by a rational."""
    roots = {F(rng.randint(-30, 30), rng.randint(1, 6))
             for _ in range(rng.randint(0, 3))}
    ks = set(rng.sample((2, 3, 5, 6, 7, 10, 11, 13, 17), rng.randint(0, 2)))
    factors = [Polynomial([-r, 1]) for r in roots]
    factors += [Polynomial([-k, 0, 1]) for k in ks]
    if not factors:
        factors = [Polynomial([-2, 0, 1])]
    return poly_product(factors) * F(rng.choice((-1, 1)) * rng.randint(1, 9),
                                     rng.randint(1, 7))


def test_sign_bisection_matches_sturm_count_bisection():
    rng = random.Random(11)
    for _ in range(60):
        p = _random_squarefree(rng)
        lo = F(rng.randint(-40, -1), rng.randint(1, 3)) - F(1, 7)
        hi = F(rng.randint(1, 40), rng.randint(1, 3)) + F(1, 11)
        width = F(1, 2 ** rng.choice((4, 30, 64, 200)))
        assert sturm_isolate(p, lo, hi, width) == _reference_isolate(
            p, lo, hi, width)


def test_sign_bisection_probes_intervals_already_narrower_than_width():
    # width 100 stops every bisection at once: the probe alone decides.
    # (z - 2)(z^2 - 3) on (3/2, 5/2]: the cut 2 is a root, and kept, so
    # sqrt 3 is boxed by (3/2, 2), whose end 2 the probe must not take
    p = Polynomial([-2, 1]) * Polynomial([-3, 0, 1])
    got = sturm_isolate(p, F(3, 2), F(5, 2), width=F(100))
    assert got == [RatInterval(F(3, 2), F(2)), RatInterval.point(F(2))]
    assert got == _reference_isolate(p, F(3, 2), F(5, 2), F(100))


def test_sign_at_agrees_with_rational_evaluation():
    rng = random.Random(3)
    for _ in range(200):
        p = Polynomial([F(rng.randint(-20, 20), rng.randint(1, 5))
                        for _ in range(rng.randint(1, 7))])
        xs = [F(0), F(rng.randint(-50, 50), rng.randint(1, 40))]
        if p.degree >= 1:
            # a rational root, so that zero values are covered too
            r = F(rng.randint(-9, 9), rng.randint(1, 4))
            p = p * Polynomial([-r, 1])
            xs.append(r)
        coeffs = integer_coefficients(p)
        assert all(isinstance(c, int) for c in coeffs)
        for x in xs:
            v = p(x)
            assert sign_at(coeffs, x.numerator, x.denominator) == (v > 0) - (v < 0)


def test_cuts_that_land_on_roots_are_roots():
    # on (0, 1] the cuts 1/2, 3/4 and 5/8 are roots, one after another
    cuts = [F(1, 2), F(3, 4), F(5, 8)]
    p = poly_product([Polynomial([-r, 1]) for r in cuts])
    assert sturm_isolate(p, F(0), F(1), WIDTH) == _points(*sorted(cuts))
    # (1/2, 3/4) has a root at both ends and sqrt(2/5) inside: the cut
    # 5/8 is not a root, and the piece right of it bisects on the sign
    p = poly_product([Polynomial([-r, 1]) for r in cuts[:2]])
    p = p * Polynomial([-2, 0, 5])
    got = sturm_isolate(p, F(0), F(1), WIDTH)
    assert got[0] == RatInterval.point(F(1, 2))
    assert got[2] == RatInterval.point(F(3, 4))
    box = got[1]
    assert F(5, 8) <= box.lo and 0 < box.width <= WIDTH
    assert 5 * box.lo ** 2 < 2 < 5 * box.hi ** 2
    assert got == _reference_isolate(p, F(0), F(1), WIDTH)


def test_a_box_that_ends_on_a_root():
    # (z - 1/2)((z - 1/2)^2 - 2/10^6): the cut 1/2 is a root, and the
    # roots 1/2 -+ sqrt(2)/1000 are boxed against it from both sides
    r = Polynomial([F(-1, 2), 1])
    p = r * (r * r - F(2, 10 ** 6))
    below, point, above = sturm_isolate(p, F(0), F(1), width=F(1, 2 ** 8))
    assert point == RatInterval.point(F(1, 2))
    assert below.hi == F(1, 2) == above.lo

    def encloses(b):
        lo, hi = sorted((abs(b.lo - F(1, 2)), abs(b.hi - F(1, 2))))
        return lo ** 2 < F(2, 10 ** 6) < hi ** 2

    for start in (below, above, RatInterval(F(1, 2), F(1))):
        assert encloses(start)
        fine = refine_enclosure(p, start, WIDTH)
        assert 0 < fine.width <= WIDTH and encloses(fine)
        assert start.lo <= fine.lo and fine.hi <= start.hi
    # a box whose ends are both roots has no sign to steer from
    q = poly_product([Polynomial([-r, 1]) for r in (0, F(1, 2), 1)])
    with pytest.raises(IdentityViolatedError):
        refine_enclosure(q, RatInterval(F(0), F(1)), F(1, 8))


def test_refinement_rejects_uncertified_boxes():
    p = Polynomial([-2, 0, 1])
    with pytest.raises(IdentityViolatedError):  # no sign change on (2, 3)
        refine_enclosure(p, RatInterval(F(2), F(3)), F(1, 8))
    with pytest.raises(ValueError):
        refine_enclosure(p, RatInterval(F(1), F(2)), F(0))


def test_isolation_evaluates_the_chain_once_per_point(monkeypatch):
    seen = []
    real = roots_module.sign_changes

    def spy(chain, num, den):
        seen.append(F(num, den))
        return real(chain, num, den)

    monkeypatch.setattr(roots_module, "sign_changes", spy)
    rng = random.Random(9)
    for _ in range(10):
        root_set = sorted(rng.sample(range(1, 40), rng.randint(2, 5)))
        p = poly_product([Polynomial([-r, 1]) for r in root_set])
        seen.clear()
        found = sturm_isolate(p, F(1, 2), F(50), WIDTH)
        assert found == _points(*root_set)
        assert len(seen) == len(set(seen))
