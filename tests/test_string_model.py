"""Mass-and-gap configurations: positions, conserved sums, wire format."""

import random
from fractions import Fraction as F

import pytest

from conftest import random_string
from oracles import chain_sums_by_subsets, conserved

from cubicstring.burgers import WaveState, conserved_floats
from cubicstring.errors import (
    EmptyStringError,
    NonPositiveGapError,
    NonPositiveMassError,
)
from cubicstring.string_model import (
    ConservedSet,
    CubicString,
    positions,
    string_from_dict,
    string_to_dict,
    validate,
)


def test_positions_from_gaps():
    s = CubicString((F(1), F(2), F(3)), (F(1), F(1, 2)), anchor=F(5))
    assert positions(s) == (F(7, 2), F(9, 2), F(5))
    assert positions(CubicString((F(1),), ())) == (F(0),)


def test_validation():
    validate(CubicString((F(1),), ()))
    with pytest.raises(EmptyStringError):
        validate(CubicString((), ()))
    with pytest.raises(NonPositiveMassError):
        validate(CubicString((F(0),), ()))
    with pytest.raises(NonPositiveGapError):
        validate(CubicString((F(1), F(1)), (F(-1),)))
    with pytest.raises(ValueError):
        CubicString((F(1), F(1)), ())  # missing gap


def test_conserved_two_mass_worked_example():
    # unit masses, unit gap, anchor 0: x = (-1, 0)
    s = CubicString((F(1), F(1)), (F(1),))
    c = conserved(s)
    assert c.total_mass == 2
    assert c.first_moment == -1
    # M_1 = m_1 + m_2 = 2; M_2 = m_1 m_2 (x_1 - x_2)^2 = 1
    assert c.higher == (F(2), F(1))


def test_conserved_hand_check_n3():
    s = CubicString((F(1), F(2), F(1)), (F(1), F(2)))
    xs = positions(s)
    assert xs == (F(-3), F(-2), F(0))
    c = conserved(s)
    assert c.total_mass == 4
    assert c.first_moment == -7
    # M_2 over pairs: 1*2*1 + 1*1*9 + 2*1*4 = 19
    assert c.higher[1] == 19
    # M_3: 1*2*1 * 1*4 = 8  (squared consecutive distances 1 and 4)
    assert c.higher[2] == 8
    assert c.higher[0] == c.total_mass


def test_invariant_masses_works_on_floats():
    c = conserved_floats(WaveState(0.0, (-3.0, -2.0, 0.0), (1.0, 2.0, 1.0)))
    assert c.higher == (4.0, 19.0, 8.0)
    assert (c.total_mass, c.first_moment) == (4.0, -7.0)


def test_conserved_matches_subset_enumeration():
    # the definition sums over all 2^n - 1 index subsets; conserved reads
    # the same values off the curvature polynomial
    rng = random.Random(31)
    for n in range(1, 11):
        for _ in range(3):
            s = random_string(rng, n)
            assert list(conserved(s).higher) == \
                chain_sums_by_subsets(s.masses, positions(s))


def test_wire_roundtrip():
    s = CubicString((F(1, 3), F(5)), (F(7, 2),), anchor=F(-2, 9))
    d = string_to_dict(s)
    assert d == {"masses": ["1/3", "5"], "gaps": ["7/2"], "anchor": "-2/9"}
    assert string_from_dict(d) == s
    with pytest.raises(ValueError):
        string_from_dict({"masses": ["1.5"], "gaps": []})
    with pytest.raises(ValueError):
        string_from_dict({"gaps": []})


def test_conserved_set_shape_random():
    rng = random.Random(2)
    for _ in range(10):
        n = rng.randint(1, 6)
        s = CubicString(
            tuple(F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)),
            tuple(F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n - 1)),
        )
        c = conserved(s)
        assert isinstance(c, ConservedSet)
        assert len(c.higher) == n
        assert c.higher[0] == c.total_mass
        assert all(v > 0 for v in c.higher)
