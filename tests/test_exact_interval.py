"""Interval arithmetic: enclosure soundness on random evaluations."""

import random
from fractions import Fraction as F

import pytest

from cubicstring.exact import Polynomial, RatInterval, eval_interval


def test_basic_ops():
    a = RatInterval(F(1), F(2))
    b = RatInterval(F(-1), F(3))
    assert (a + b) == RatInterval(F(0), F(5))
    assert (a * b) == RatInterval(F(-2), F(6))
    assert (b / a) == RatInterval(F(-1), F(3))
    assert b.contains_zero()
    assert not a.contains_zero()
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
