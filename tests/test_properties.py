"""Differential property tests: the runtime routes against each other
and against the crossing-matrix oracle, at sizes up to n = 12."""

from fractions import Fraction as F
from itertools import accumulate

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import transition

from cubicstring.forward import boundary_data, residues, spectrum
from cubicstring.inverse import (
    SpectralData,
    recover,
    recover_detailed,
    verify_exact_roundtrip,
)
from cubicstring.string_model import CubicString

MAX_N = 12
positive = st.fractions(min_value=F(1, 4), max_value=8, max_denominator=4)


@st.composite
def spectral_data(draw):
    n = draw(st.integers(1, MAX_N))
    lams = tuple(accumulate(draw(st.lists(positive, min_size=n - 1,
                                          max_size=n - 1))))
    bs = tuple(-b for b in draw(st.lists(positive, min_size=n - 1,
                                         max_size=n - 1)))
    return SpectralData(lams, bs, draw(positive))


@st.composite
def strings(draw):
    n = draw(st.integers(1, MAX_N))
    return CubicString(
        tuple(draw(st.lists(positive, min_size=n, max_size=n))),
        tuple(draw(st.lists(positive, min_size=n - 1, max_size=n - 1))),
        draw(st.fractions(min_value=-8, max_value=8, max_denominator=4)))


@settings(max_examples=30)
@given(spectral_data())
def test_forward_map_inverts_recover(sd):
    # the recovered string has an all-rational spectrum: the forward map
    # finds it exactly, and recovering from that gives the string back
    s = verify_exact_roundtrip(sd)
    wd = residues(spectrum(s))
    assert wd.all_exact
    again = SpectralData(tuple(e.exact for e in wd.eigenvalues),
                         wd.w_residues, sum(s.masses))
    assert again == sd
    assert recover(again) == s


@settings(max_examples=30)
@given(spectral_data())
def test_recover_is_the_audited_string(sd):
    assert recover(sd) == recover_detailed(sd).string


@settings(max_examples=30)
@given(strings())
def test_boundary_data_is_column_zero_of_the_crossing(s):
    full = transition(s, 2 * s.n - 1)
    wd = boundary_data(s)
    assert (wd.phi, wd.phi_x, wd.phi_xx) == tuple(row[0] for row in full)
