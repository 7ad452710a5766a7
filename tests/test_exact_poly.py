"""Polynomial ring over the rationals, stored on integers: algebraic
laws and the helpers the rest of the package leans on (difference
quotients, reflection), and the tests' reference division.  The
property tests hold each operation to the Fraction reference."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import poly_divmod, poly_product, reflected

from cubicstring.exact import Polynomial

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
polys = st.lists(rationals, max_size=7).map(Polynomial)


def test_canonical_form_drops_trailing_zeros():
    p = Polynomial([F(1), F(2), F(0), F(0)])
    assert p.degree == 1
    assert p.coefficients == (F(1), F(2))
    assert Polynomial([0, 0]).is_zero()
    assert Polynomial().degree == -1
    q = Polynomial.from_integers([6, -4, 0], -8)
    assert (q.numerators, q.denominator) == ((-3, 2), 4)
    with pytest.raises(ZeroDivisionError):
        Polynomial.from_integers([1], 0)


def test_evaluation_and_arithmetic_small():
    p = Polynomial([1, -3, 2])          # 2z^2 - 3z + 1 = (2z-1)(z-1)
    assert p(F(1)) == 0
    assert p(F(1, 2)) == 0
    assert p(0) == 1
    q = Polynomial([0, 1])              # z
    assert (p * q).coefficients == (F(0), F(1), F(-3), F(2))
    assert (p + q).coefficients == (F(1), F(-2), F(2))
    assert (p - p).is_zero()


@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys, polys)
@settings(max_examples=60)
def test_division_identity(a, b):
    # the reference division the Sturm chain is checked against
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            poly_divmod(a, b)
        return
    q, r = poly_divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree or r.is_zero()


@given(polys, rationals)
def test_difference_quotient_clears_the_pole(p, lam):
    dq = p.difference_quotient(lam)
    # dq * (z - lam) == p - p(lam)
    z = Polynomial.x()
    assert dq * (z - Polynomial.constant(lam)) == p - Polynomial.constant(p(lam))


@given(polys, rationals)
def test_reflection_is_evaluation_at_minus(p, x):
    assert reflected(p)(x) == p(-x)


def test_derivative_product_rule():
    a = Polynomial([1, 2, 3])
    b = Polynomial([-4, 0, 0, 5])
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


def test_from_pairs_and_product():
    fs = [Polynomial([-k, 1]) for k in (1, 2, 3)]
    prod = poly_product(fs)
    assert prod(1) == 0 and prod(2) == 0 and prod(3) == 0
    assert prod.leading == 1 and prod.degree == 3


def test_shift_and_leading():
    p = Polynomial([5, 7])
    assert p.leading == 7
    assert Polynomial().leading == 0
