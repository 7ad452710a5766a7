"""Rational intervals: the integer Horner enclosure, sound on random
evaluations and equal to the interval Horner over Fraction, and the
quotient of integer ends by the sign rule, equal to the hull of the four
quotients."""

import random
from fractions import Fraction as F

import pytest

from oracles import interval_horner, quotient_hull

from cubicstring.exact import (
    Polynomial,
    RatInterval,
    divide_ends,
    eval_interval,
)
from cubicstring.exact.rational import over_common_denominator


def enclosure(p, box, degree=None):
    """eval_interval's ends over box as Fractions."""
    degree = max(p.degree, 0) if degree is None else degree
    (a, b), den = over_common_denominator((box.lo, box.hi))
    lo, hi = eval_interval(p, a, b, den, degree)
    scale = p.denominator * den ** degree
    return F(lo, scale), F(hi, scale)


def test_basic_ops():
    a = RatInterval(F(1), F(2))
    assert a.is_positive() and a.sign_definite()
    assert RatInterval(F(-2), F(-1)).is_negative()
    assert not RatInterval(F(-1), F(3)).sign_definite()
    # [-1, 3] / [1, 2] on integer ends over scales 3 and 5
    assert divide_ends((-3, 9), 3, (5, 10), 5) == RatInterval(F(-1), F(3))


def test_division_by_zero_interval_rejected():
    # a denominator that straddles zero, or has an end exactly 0
    for d in ((-1, 1), (0, 3), (-3, 0), (0, 0)):
        with pytest.raises(ZeroDivisionError):
            divide_ends((1, 2), 1, d, 1)
        with pytest.raises(ZeroDivisionError):
            quotient_hull((F(1), F(2)), tuple(map(F, d)))


def test_quotient_ends_by_the_sign_rule_equal_the_hull():
    # a numerator below, straddling and above zero, with an end exactly
    # 0, and points, over denominators of both signs, points too; the
    # scales are positive
    rng = random.Random(27)
    nums = [(-7, -2), (-5, 0), (-3, 4), (0, 0), (0, 6), (2, 9), (-4, -4),
            (5, 5)]
    dens = [(1, 3), (2, 2), (-6, -1), (-2, -2), (3, 8), (-9, -4)]
    for num in nums:
        for d in dens:
            scales = ((1, 1), (3, 7), (10 ** 12, 2 ** 40),
                      (rng.randint(1, 99), rng.randint(1, 99)))
            for num_scale, d_scale in scales:
                got = divide_ends(num, num_scale, d, d_scale)
                want = quotient_hull(tuple(F(x, num_scale) for x in num),
                                     tuple(F(x, d_scale) for x in d))
                assert (got.lo, got.hi) == want, (num, d, num_scale, d_scale)
                if num[0] == num[1] and d[0] == d[1]:
                    assert got.width == 0


def test_polynomial_enclosure_contains_true_values():
    rng = random.Random(9)
    for _ in range(40):
        p = Polynomial([F(rng.randint(-6, 6), rng.randint(1, 3))
                        for _ in range(rng.randint(1, 5))])
        lo = F(rng.randint(-8, 8), rng.randint(1, 4))
        box = RatInterval(lo, lo + F(rng.randint(0, 5), 7))
        enc_lo, enc_hi = enclosure(p, box)
        for t in range(5):
            x = box.lo + (box.hi - box.lo) * F(t, 4)
            assert enc_lo <= p(x) <= enc_hi


def test_enclosure_ends_equal_the_fraction_horner():
    rng = random.Random(20)
    for trial in range(400):
        if trial % 50 == 0:
            p = Polynomial.zero()
        else:
            p = Polynomial([F(rng.randint(-30, 30), rng.randint(1, 12))
                            for _ in range(rng.randint(1, 8))])
        den = rng.choice((1, 2, 3, 7, 2 ** 40, 10 ** 12))
        # negative, straddling zero, positive, and a point
        u, v = sorted(F(rng.randint(0, 5 * den), den) for _ in range(2))
        for box in (RatInterval(-v - 1, -u - F(1, 3)),
                    RatInterval(-u - 1, v + F(1, 5)),
                    RatInterval(u + F(1, 7), v + 1),
                    RatInterval.point(rng.choice((u - v, v - u)))):
            want = interval_horner(p, box.lo, box.hi)
            assert enclosure(p, box) == want
            # over a higher degree the scale grows, and the values stay
            assert enclosure(p, box, max(p.degree, 0) + 2) == want
