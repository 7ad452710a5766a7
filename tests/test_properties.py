"""Differential property tests: the runtime routes against each other
and against the oracles (the crossing matrices, the per-size minors and
the closed form of the flow), at sizes up to n = 12."""

from fractions import Fraction as F
from itertools import accumulate

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import flow_closed_form, moment_minors_by_blocks, transition

from cubicstring.burgers import evolved_data, scale_factor
from cubicstring.forward import boundary_data, residues, spectrum
from cubicstring.heine import measure_table, random_measure
from cubicstring.inverse import (
    SpectralData,
    bimoments,
    moment_minors,
    recover,
    recover_detailed,
    verify_exact_roundtrip,
)
from cubicstring.string_model import CubicString

MAX_N = 12
positive = st.fractions(min_value=F(1, 4), max_value=8, max_denominator=4)


@st.composite
def spectral_data(draw, max_n=MAX_N):
    n = draw(st.integers(1, max_n))
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


@settings(max_examples=20)
@given(spectral_data())
def test_moment_minors_match_the_per_size_route(sd):
    bt = bimoments(sd, sd.n - 1)
    assert moment_minors(bt) == moment_minors_by_blocks(bt)


@settings(max_examples=20)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10 ** 6))
def test_moment_minors_past_the_support(support, extra, seed):
    # the pair table of `support` points has rank at most `support`, so
    # past it the blocks are singular and a zero pivot ends elimination
    bt = measure_table(random_measure(support, seed), support + extra)
    assert moment_minors(bt) == moment_minors_by_blocks(bt)


@settings(max_examples=20)
@given(spectral_data())
def test_mass_corner_is_corner_plus_the_atom_cofactor(sd):
    mm = moment_minors(bimoments(sd, sd.n - 1))
    atom = 1 / (2 * sd.total_mass)
    for k in range(1, len(mm.mass_corner)):
        assert mm.mass_corner[k] == mm.corner[k] + atom * mm.inner[k - 1]


@settings(max_examples=20)
@given(spectral_data(max_n=7),
       st.sampled_from([0.0, 0.25, -0.5, 1.0, 1.75]))
def test_flow_closed_form_is_the_recovered_string(sd, t):
    sigma = scale_factor(sd.total_mass, t, 64)
    assert flow_closed_form(sd, sigma) == recover(evolved_data(sd, t, 64))
    for sigma in (F(3, 2), F(2, 7), F(5)):
        scaled = SpectralData(sd.eigenvalues,
                              tuple(sigma * b for b in sd.residues),
                              sd.total_mass)
        assert flow_closed_form(sd, sigma) == recover(scaled)
