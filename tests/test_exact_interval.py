"""Rational intervals: division, and the integer Horner enclosure,
sound on random evaluations and equal to the interval Horner over
Fraction."""

import random
from fractions import Fraction as F

import pytest

from oracles import interval_horner

from cubicstring.exact import Polynomial, RatInterval, eval_interval


def test_basic_ops():
    a = RatInterval(F(1), F(2))
    b = RatInterval(F(-1), F(3))
    assert (b / a) == RatInterval(F(-1), F(3))
    assert a.is_positive() and a.sign_definite()
    assert RatInterval(F(-2), F(-1)).is_negative()


def test_division_by_zero_interval_rejected():
    with pytest.raises(ZeroDivisionError):
        RatInterval(F(1), F(2)) / RatInterval(F(-1), F(1))


def test_polynomial_enclosure_contains_true_values():
    rng = random.Random(9)
    for _ in range(40):
        p = Polynomial([F(rng.randint(-6, 6), rng.randint(1, 3))
                        for _ in range(rng.randint(1, 5))])
        lo = F(rng.randint(-8, 8), rng.randint(1, 4))
        box = RatInterval(lo, lo + F(rng.randint(0, 5), 7))
        enc = eval_interval(p, box)
        for t in range(5):
            x = box.lo + (box.hi - box.lo) * F(t, 4)
            assert enc.lo <= p(x) <= enc.hi


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
            enc = eval_interval(p, box)
            assert (enc.lo, enc.hi) == interval_horner(p, box.lo, box.hi)
