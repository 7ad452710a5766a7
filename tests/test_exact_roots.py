"""Sturm isolation: counts, enclosures, and exact-root identification:
a root is a point exactly when it is rational."""

import math
import random
from fractions import Fraction as F

import pytest

from oracles import by_halving, poly_product

from cubicstring.errors import IdentityViolatedError, NotSquarefreeError
from cubicstring.exact import (
    Polynomial,
    RatInterval,
    cauchy_root_bound,
    refine_enclosure,
    sturm_chain,
    sturm_isolate,
)
from cubicstring.exact import roots as roots_module
from cubicstring.exact.rational import content_free
from cubicstring.exact.roots import sign_at, sign_changes

# the isolation width where a test does not turn on it
WIDTH = F(1, 2 ** 64)


def test_chain_counts_roots_of_factored_poly():
    # (z-1)(z-2): two roots in (0, 10]
    p = Polynomial([2, -3, 1])
    chain = [q.numerators for q in sturm_chain(p)]
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
    assert r.lo <= r2.lo and r2.hi <= r.hi


def test_close_rational_root_is_still_found():
    # two roots 2^-70 apart force deep subdivision; each is found as a
    # point at a coarse width as at a fine one, the coarse run bisecting
    # on past the width to the 1/lead, lead = 9 * 2^70, of the test
    r1, r2 = F(1, 3), F(1, 3) + F(1, 2 ** 70)
    p = Polynomial([-r1, 1]) * Polynomial([-r2, 1])
    for width in (F(1), F(1, 2 ** 150)):
        assert sturm_isolate(p, F(0), F(1), width) == _points(r1, r2)


def test_a_root_is_a_point_exactly_when_rational_at_any_width():
    # 355/113 and -7/9 beside -+sqrt 3 and -+sqrt 2, from width 4 down
    p = poly_product([Polynomial([F(-355, 113), 1]), Polynomial([F(7, 9), 1]),
                      Polynomial([-2, 0, 1]), Polynomial([-3, 0, 1])])
    for bits in (-2, 0, 1, 8, 64, 300):
        width = F(2) ** -bits
        got = sturm_isolate(p, F(-4), F(4), width)
        assert [r.width == 0 for r in got] == [False, False, True,
                                               False, False, True]
        assert (got[2].lo, got[5].lo) == (F(-7, 9), F(355, 113))
        assert all(r.width <= width for r in got)
        assert got == _reference_isolate(p, F(-4), F(4), width)


def test_the_sieve_proves_there_is_no_rational_root():
    # z^2 - 2 has no root mod 3; (z^2 - 2)(z^2 - 17)(z^2 - 34) has one
    # mod every prime, and 2 z - 1 has the rational root 1/2
    assert roots_module._no_rational_root([-2, 0, 1])
    every = poly_product([Polynomial([-k, 0, 1]) for k in (2, 17, 34)])
    assert not roots_module._no_rational_root(every.numerators)
    assert not roots_module._no_rational_root([-1, 2])


# -- reference: isolation that refines by Sturm counts at every step -------

def _v(chain, x):
    """V(x) by rational evaluation of the chain's polynomials."""
    signs = [v > 0 for v in (q(x) for q in chain) if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _rational_root_in(p, a, b):
    """The rational root of p in the open (a, b), if there is one, by
    the rational root theorem: it is some u/v with v dividing the
    leading coefficient of the primitive integer p."""
    lead = abs(content_free(p.numerators)[-1])
    for v in range(1, lead + 1):
        if lead % v == 0:
            for u in range(math.floor(a * v) + 1, math.ceil(b * v)):
                if p(F(u, v)) == 0:
                    return F(u, v)
    return None


def _reference_refine(p, chain, a, b, width):
    """Sturm-count bisection to width; then a point if a rational root
    lies in the open box."""
    while b - a > width:
        mid = (a + b) / 2
        if p(mid) == 0:
            return RatInterval.point(mid)
        if _v(chain, a) - _v(chain, mid) == 1:
            b = mid
        else:
            a = mid
    root = _rational_root_in(p, a, b)
    return RatInterval(a, b) if root is None else RatInterval.point(root)


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
    out.sort(key=lambda r: (r.lo, r.hi))
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
    # width 100 stops every bisection at once: the candidate test alone
    # decides.  (z - 2)(z^2 - 3) on (3/2, 5/2]: the cut 2 is a root, and
    # kept, so sqrt 3 is boxed by (3/2, 2), whose end 2 is not a candidate
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
        coeffs = p.numerators
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


# -- Newton-guessed grid cells ---------------------------------------------

@pytest.fixture
def guesses(monkeypatch):
    """The (lo, hi, levels, index) of every Newton guess the refinement
    makes, the cell it guessed in being (lo, hi)."""
    seen = []
    real = roots_module._newton_cell

    def spy(coeffs, a, b, den, levels):
        i = real(coeffs, a, b, den, levels)
        seen.append((F(a, den), F(b, den), levels, i))
        return i

    monkeypatch.setattr(roots_module, "_newton_cell", spy)
    return seen


def test_a_newton_step_past_the_box_is_clamped_into_it():
    # 3z^3 - 2z^2 - 3z - 3 on (7/8, 7/4): the step from the midpoint
    # lands past 7/4, and names the last of the four cells
    p = Polynomial([-3, -3, -2, 3])
    mid = F(21, 16)
    assert mid - p(mid) / p.derivative()(mid) > F(7, 4)
    assert roots_module._newton_cell(list(p.numerators), 7, 14, 8, 2) == 3
    box = RatInterval(F(7, 8), F(7, 4))
    assert refine_enclosure(p, box, WIDTH) == by_halving(
        refine_enclosure, p, box, WIDTH)


def test_a_guessed_cell_with_a_root_at_an_end_is_refused(guesses):
    # 4z - 1 on (0, 1): the step lands on the root 1/4, an end of the
    # cell (1/4, 1/2) it names; the cell is refused and halving finds
    # the root as a point
    got = sturm_isolate(Polynomial([-1, 4]), F(0), F(1), WIDTH)
    assert guesses == [(F(0), F(1), 2, 1)]
    assert got == _points(F(1, 4))


def test_a_jump_stops_at_the_rational_root_test(guesses):
    # 24z - 1 on (0, 1): the 1/24 test acts at the cell 2^-5 wide, so
    # after a jump of two levels the next is three, not four
    got = sturm_isolate(Polynomial([-1, 24]), F(0), F(1), WIDTH)
    assert [levels for _, _, levels, _ in guesses] == [2, 3]
    assert got == _points(F(1, 24))


def test_a_jump_stops_at_the_requested_width(guesses):
    # sqrt 2 on (1, 2) to 2^-10: jumps of two and four levels, then
    # four, not eight, to the box the halving reaches
    p = Polynomial([-2, 0, 1])
    box, width = RatInterval(F(1), F(2)), F(1, 2 ** 10)
    got = refine_enclosure(p, box, width)
    assert [levels for _, _, levels, _ in guesses] == [2, 4, 4]
    assert got.width == width
    assert got == by_halving(refine_enclosure, p, box, width)
