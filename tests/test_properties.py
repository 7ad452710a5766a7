"""Differential property tests: the runtime routes against each other
and against the oracles (the crossing matrices, the kernel pair table,
the value residues by Fraction sums, the per-size minors, the closed
form of the flow, the Sturm chain by division, polynomials and
crossing steps over Fraction, and the RK4 step by generator sums), at
sizes up to n = 12, n = 16 for the minors and the crossing steps,
n = 24 for the peel and n = 40 for the RK4 step."""

import json
import sys
from fractions import Fraction as F
from itertools import accumulate
from math import gcd, inf, lcm
from pathlib import Path
from random import Random
from tempfile import TemporaryDirectory

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from cli_identity import ratio_string
from oracles import (
    FractionPolynomial,
    by_halving,
    chain_sums_by_subsets,
    float_spectrum_oracle,
    flow_closed_form,
    flow_state_by_fractions,
    flow_triple,
    fraction_gap_step,
    fraction_jump_step,
    invariant_masses as chain_off_phi_xx,
    last_scale_of_triple,
    moment_minors_by_blocks,
    pair_table_by_kernel,
    residues_by_hull,
    rk4_step_reference,
    sturm_chain_by_division,
    transition,
    value_residues_by_fractions,
)

from cubicstring import burgers
from cubicstring.burgers import (
    WaveState,
    conserved_floats,
    evolve_spectral,
    evolve_spectral_exact,
    flow_state,
    integrate_rk4,
    last_scale,
    rationalize,
    scale_factor,
)
from cubicstring.cli import main
from cubicstring.errors import FlowOutOfRangeError, OrderingViolatedError
from cubicstring.exact import (
    Polynomial,
    cauchy_root_bound,
    refine_enclosure,
    sturm_chain,
    sturm_isolate,
)
from cubicstring.exact.rational import over_common_denominator
from cubicstring.forward import (
    boundary_data,
    decimal_digits,
    decimal_string,
    eigenvalue_polynomial,
    gap_step,
    jump_step,
    partial_triples,
    residues,
    spectrum,
    value_residues,
)
from cubicstring.heine import measure_table, random_measure
from cubicstring.inverse import (
    SpectralData,
    _boundary_triple,
    bimoments,
    moment_minors,
    recover,
    peel,
    random_spectral,
    recover_detailed,
    spectral_to_dict,
    table_from_support,
    verify_exact_roundtrip,
)
from cubicstring.string_model import (
    CubicString,
    invariant_masses,
    positions,
    string_from_dict,
    string_to_dict,
)

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
def strings(draw, max_n=MAX_N, min_n=1):
    n = draw(st.integers(min_n, max_n))
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
    wd = residues(spectrum(boundary_data(s)))
    assert all(v.width == 0 for v in wd.eigenvalues + wd.w_residues)
    again = SpectralData(tuple(e.lo for e in wd.eigenvalues),
                         tuple(b.lo for b in wd.w_residues), sum(s.masses))
    assert again == sd
    assert recover(again) == s


@settings(max_examples=30)
@given(st.integers(2, 10), st.integers(0, 10 ** 6), st.sampled_from((1, 8, 64)))
def test_recovered_strings_print_exact_at_any_bits(n, seed, bits):
    # every eigenvalue of a recovered string is rational, so forward
    # prints the spectral data back exactly, however few the bits
    sd = random_spectral(n, seed)
    with TemporaryDirectory() as folder:
        src, out = Path(folder, "s.json"), Path(folder, "out.json")
        src.write_text(json.dumps(string_to_dict(recover(sd))),
                       encoding="utf-8")
        assert main(["forward", str(src), "-o", str(out),
                     "--precision-bits", str(bits)]) == 0
        assert json.loads(out.read_text(encoding="utf-8")) == \
            spectral_to_dict(sd)


@settings(max_examples=40)
@given(strings(), st.integers(1, 64))
def test_isolation_agrees_with_the_float_oracle(s, bits):
    # n - 1 sorted, disjoint boxes no wider than 2^-bits, each holding
    # the eigenvalue of the float oscillatory route, widened by 1e-9
    # relative; every residue certified negative; every box and slope
    # residue has one decimal at the digits the bits print
    wd = residues(spectrum(boundary_data(s), bits), bits)
    digits = decimal_digits(bits)
    for box in wd.eigenvalues + wd.w_residues:
        assert (decimal_string(box.lo, digits)
                == decimal_string(box.hi, digits))
    boxes = wd.eigenvalues
    assert len(boxes) == s.n - 1
    for a, b in zip(boxes, boxes[1:]):
        assert a.hi <= b.lo and a.lo < b.hi
    for box, lam in zip(boxes, float_spectrum_oracle(s)):
        assert box.width <= F(1, 2 ** bits)
        assert float(box.lo) * (1 - 1e-9) <= lam <= float(box.hi) * (1 + 1e-9)
    assert all(r.is_negative() for r in wd.w_residues + wd.z_residues)


def _isolate_and_refine(q, bits):
    """q's eigenvalue boxes at 2^-bits, and each refined 16 bits finer,
    as residues first refines it."""
    boxes = sturm_isolate(q, F(0), cauchy_root_bound(q), F(1, 2 ** bits))
    return boxes, [refine_enclosure(q, box, F(1, 2 ** (bits + 16)))
                   for box in boxes]


@settings(max_examples=60)
@given(st.one_of(
    strings(),
    # random ratios of 1- to 4-digit integers, for a q of more bits
    st.builds(lambda n, seed, digits: string_from_dict(
        ratio_string(Random(seed), n, digits)),
        st.integers(2, MAX_N), st.integers(0, 10 ** 6), st.integers(1, 4)),
    # recovered strings: every eigenvalue rational
    st.builds(lambda n, seed: recover(random_spectral(n, seed)),
              st.integers(2, MAX_N), st.integers(0, 10 ** 6))),
    st.integers(1, 1024))
def test_grid_refinement_is_the_halving_refinement(s, bits):
    # the cells the Newton steps guess are the cells halving reaches:
    # the same boxes, points and widths
    q = eigenvalue_polynomial(boundary_data(s))
    assert _isolate_and_refine(q, bits) == by_halving(
        _isolate_and_refine, q, bits)


@settings(max_examples=40)
@given(st.one_of(
    strings(),
    # recovered strings: point boxes, and point quotients
    spectral_data().map(recover)),
    st.one_of(st.integers(1, 64), st.sampled_from((256, 1024, 4096))))
def test_residues_are_the_fraction_hull(s, bits):
    # the enclosures on integer ends, each quotient end picked by the
    # signs, are the interval Horner over Fraction with the hull of the
    # four quotients: the same boxes, residues and refinement attempts
    wd = spectrum(boundary_data(s), bits)
    got = residues(wd, bits)
    assert (got.eigenvalues, got.w_residues, got.z_residues) == \
        residues_by_hull(wd, bits)


coefficients = st.fractions(min_value=-60, max_value=60, max_denominator=12)
nonzero_polys = st.lists(coefficients, min_size=1, max_size=7).map(
    Polynomial).filter(bool)
factors = st.lists(coefficients, min_size=2, max_size=4).map(
    Polynomial).filter(lambda f: f.degree >= 1)


@settings(max_examples=200)
@given(st.lists(coefficients, min_size=1, max_size=13).map(Polynomial))
def test_sturm_chain_is_the_division_chain(p):
    # degrees 0 to 12 (and the zero polynomial), leading coefficients of
    # either sign
    assert sturm_chain(p) == sturm_chain_by_division(p)


@settings(max_examples=100)
@given(nonzero_polys, factors)
def test_sturm_chain_of_a_square_factor(p, f):
    # p f^2, of degree up to 12: the chain ends at gcd(p, p'), which f
    # divides, so above degree 0
    p = p * f * f
    chain = sturm_chain(p)
    assert chain == sturm_chain_by_division(p)
    assert chain[-1].degree >= f.degree


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_sturm_chain_of_the_benchmark_strings(seed):
    # the irrational and the recovered string of each forward-ladder rung
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        import workloads
    finally:
        sys.path.remove(perfbench)
    with TemporaryDirectory() as tmp:
        rungs = workloads.build("forward-ladder", seed, Path(tmp))
        for rung in rungs:
            for _, path in rung.calls:
                doc = json.loads(Path(path).read_text(encoding="utf-8"))
                q = eigenvalue_polynomial(boundary_data(string_from_dict(doc)))
                assert sturm_chain(q) == sturm_chain_by_division(q)


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


# -- Polynomial on integers against Polynomial over Fraction ---------------

poly_coefficients = st.lists(
    st.fractions(min_value=-50, max_value=50, max_denominator=30),
    max_size=8)
scalars = st.one_of(st.sampled_from((F(0), F(-1), F(-7, 3))),
                    st.fractions(min_value=-20, max_value=20,
                                 max_denominator=15))


def _assert_is(p, ref):
    """p holds the reference's coefficients, in canonical form: over the
    lcm of their denominators, with content coprime to it."""
    cs = ref.coefficients
    assert p.coefficients == cs
    assert p.degree == len(cs) - 1
    assert p.denominator == lcm(*(c.denominator for c in cs))
    assert gcd(p.denominator, *p.numerators) == 1
    assert [F(c, p.denominator) for c in p.numerators] == list(cs)


@settings(max_examples=300)
@given(poly_coefficients, poly_coefficients, scalars, scalars)
def test_polynomial_on_integers_is_the_fraction_polynomial(a, b, c, x):
    # lists may be empty (the zero polynomial) or end in zeros
    p, q = Polynomial(a), Polynomial(b)
    rp, rq = FractionPolynomial(a), FractionPolynomial(b)
    _assert_is(p, rp)
    rc = FractionPolynomial((c,))
    for got, want in ((p + q, rp + rq), (p - q, rp - rq), (p * q, rp * rq),
                      (-p, -rp), (p * c, rp * c), (c * p, rp * c),
                      (p * int(c), rp * int(c)), (p + c, rp + rc),
                      (p.derivative(), rp.derivative()),
                      (p.difference_quotient(c), rp.difference_quotient(c))):
        _assert_is(got, want)
    # at a root the quotient divides exactly
    root = Polynomial((-c, 1))
    _assert_is((p * root).difference_quotient(c), rp)
    assert p(x) == rp(x) and p(int(x)) == rp(int(x))
    assert (p == q) == (rp == rq)
    # equal polynomials, however built, are equal and hash alike
    for same in (Polynomial(list(a) + [0, 0]), (p + q) - q):
        assert same == p and hash(same) == hash(p)
    assert Polynomial((c,)) == c and (p == c) == (rp == rc)


# -- the integer crossing steps against the Fraction steps ----------------

def _equal(triple, ref) -> bool:
    return all(p.coefficients == r.coefficients for p, r in zip(triple, ref))


def _fraction_triple(triple) -> tuple:
    return tuple(FractionPolynomial(p.coefficients) for p in triple)


def _peel_in_lockstep(triple) -> None:
    """The peel's steps on triple, each checked against the Fraction
    step on the same triple."""
    for d in range(triple[2].degree - 1, -1, -1):
        m = -triple[2].coefficient(d + 1) / (2 * triple[0].leading)
        ref = fraction_jump_step(_fraction_triple(triple), -m)
        triple = jump_step(triple, -m)
        assert _equal(triple, ref)
        if d == 0:
            break
        gap = triple[1].leading / triple[2].leading
        ref = fraction_gap_step(_fraction_triple(triple), -gap)
        triple = gap_step(triple, -gap)
        assert _equal(triple, ref)
    assert triple == (Polynomial.one(), Polynomial.zero(), Polynomial.zero())


@settings(max_examples=25)
@given(st.integers(2, 16), st.integers(0, 10 ** 6),
       st.fractions(min_value=F(1, 5), max_value=5, max_denominator=7)
       .filter(lambda x: x != 1))
def test_crossing_steps_are_the_fraction_steps(n, seed, sigma):
    # on a string recovered from random_spectral: its forward crossing,
    # the peel of the triple its data fixes, and the peel of the flow's
    # triple at a rational sigma other than 1
    sd = random_spectral(n, seed)
    triple = _boundary_triple(sd)[0]
    s = peel(triple)
    zero = FractionPolynomial()
    ref = fraction_jump_step((FractionPolynomial((1,)), zero, zero),
                             s.masses[0])
    for k, got in enumerate(partial_triples(s), 1):
        assert _equal(got, ref)
        if k < n:
            ref = fraction_jump_step(fraction_gap_step(ref, s.gaps[k - 1]),
                                     s.masses[k])
    assert got == triple
    _peel_in_lockstep(triple)
    _peel_in_lockstep(flow_triple(boundary_data(s), sd.total_mass, sigma))


@settings(max_examples=25)
@given(strings(max_n=24))
def test_peel_inverts_the_crossing(s):
    # random strings up to n = 24, the peel anchored at zero
    wd = boundary_data(s)
    again = peel((wd.phi, wd.phi_x, wd.phi_xx))
    assert (again.masses, again.gaps) == (s.masses, s.gaps)


@settings(max_examples=20)
@given(spectral_data(max_n=16))
def test_moment_minors_match_the_per_size_route(sd):
    bt = bimoments(sd, sd.n - 1)
    assert moment_minors(bt) == moment_minors_by_blocks(bt)


signed = st.fractions(min_value=-8, max_value=8, max_denominator=4).filter(
    lambda w: w != 0)


@st.composite
def signed_weights(draw, max_support=6):
    """Distinct positive points with nonzero weights of either sign."""
    support = draw(st.integers(1, max_support))
    gaps = draw(st.lists(positive, min_size=support, max_size=support))
    return (tuple(accumulate(gaps)),
            tuple(draw(st.lists(signed, min_size=support,
                                max_size=support))))


@settings(max_examples=60)
@given(st.lists(st.tuples(signed, signed), max_size=6))
def test_value_residues_on_integers_match_the_fraction_sums(pairs):
    # signed points and weights; where two points, or one twice, sum to
    # zero, both routes divide by zero
    lams = tuple(lam for lam, _ in pairs)
    bs = tuple(b for _, b in pairs)
    try:
        want = value_residues_by_fractions(lams, bs)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            value_residues(lams, bs)
    else:
        assert value_residues(lams, bs) == want


def test_value_residues_refuse_a_vanishing_pair_sum():
    for lams in ((F(2), F(-2)), (F(1), F(0)), (F(-3, 2), F(1), F(3, 2))):
        bs = (F(-1),) * len(lams)
        with pytest.raises(ZeroDivisionError):
            value_residues_by_fractions(lams, bs)
        with pytest.raises(ZeroDivisionError):
            value_residues(lams, bs)


@settings(max_examples=40)
@given(signed_weights(), st.integers(0, 3))
def test_displacement_table_is_the_kernel_table(weights, extra):
    # max_order runs up to three past the support, where the table's
    # blocks are singular
    lams, bs = weights
    order = len(lams) - 1 + extra
    bt = table_from_support(lams, bs, F(1), order)
    assert bt.pair_table == pair_table_by_kernel(lams, bs, order)
    assert bt.moments == tuple(sum((b * lam ** j for lam, b in zip(lams, bs)),
                                   F(0)) for j in range(order + 1))


@settings(max_examples=20)
@given(signed_weights(max_support=4), st.integers(0, 2))
def test_moment_minors_on_signed_weights(weights, extra):
    bt = table_from_support(*weights, F(3, 2), len(weights[0]) - 1 + extra)
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
    # four routes to the string at residue scale sigma: the scaled
    # boundary triple peeled, the closed form in sigma of the minors,
    # recover of the scaled spectral data, and the runtime's explicit
    # solution on the t = 0 string
    s = recover(sd)
    wd = boundary_data(s)
    first, _ = next(scale_factor(sd.total_mass, t))
    for sigma in (first, F(3, 2), F(2, 7), F(5)):
        scaled = SpectralData(sd.eigenvalues,
                              tuple(sigma * b for b in sd.residues),
                              sd.total_mass)
        closed = flow_closed_form(sd, sigma)
        assert peel(flow_triple(wd, sd.total_mass, sigma)) == closed
        assert closed == recover(scaled)
        assert flow_state(s, sigma) == closed


@settings(max_examples=30)
@given(strings(), st.fractions(min_value=F(1, 64), max_value=64,
                               max_denominator=64))
def test_flow_state_is_the_peel_of_the_scaled_triple(s, sigma):
    # random strings up to n = 12 and sigmas either side of 1: the
    # explicit solution, anchored at zero, is the string the peel
    # recovers from the t = 0 triple with its residues scaled
    assert (flow_state(s, sigma)
            == peel(flow_triple(boundary_data(s), sum(s.masses), sigma)))


@settings(max_examples=30)
@given(strings(min_n=2))
def test_last_scale_is_the_triple_form(s):
    # m_n (M 2^1075 - 1) / (M - m_n) off the string equals
    # (-P 2^1074 + C) / B off its boundary triple
    assert (F(*last_scale(*over_common_denominator(s.masses)))
            == last_scale_of_triple(boundary_data(s), sum(s.masses)))


@settings(max_examples=30)
@given(strings())
def test_evolve_spectral_time_zero_row_is_the_input(s):
    state = WaveState(0.0, tuple(float(x) for x in positions(s)),
                      tuple(float(m) for m in s.masses))
    _, rows = evolve_spectral_exact(state, [0.0, 0.5])
    assert rows[0] == (0.0, rationalize(state))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.lists(positive, min_size=n, max_size=n),
    st.lists(positive, min_size=n - 1, max_size=n - 1))),
    st.floats(0.05, 1.5))
def test_spectral_route_matches_rk4(masses_gaps, mt_end):
    # quarters are exact doubles; RK4 at 200 steps to M t_end <= 1.5 is
    # within about 1e-9 of the flow
    masses, gaps = masses_gaps
    xs = [0.0]
    for g in reversed(gaps):
        xs.insert(0, xs[0] - float(g))
    state = WaveState(0.0, tuple(xs), tuple(float(m) for m in masses))
    t_end = mt_end / float(sum(masses))
    rk4 = integrate_rk4(state, t_end / 200, t_end, samples=3)
    spectral = evolve_spectral(state, [t for t, _, _ in rk4.samples])
    for (_, a, _), (_, b, _) in zip(rk4.samples, spectral.samples):
        for p, q in zip(a.positions + a.momenta, b.positions + b.momenta):
            assert abs(p - q) <= 1e-6 * max(1.0, abs(q))


def _rk4_steps(step, xs, ms, h, count):
    """float.hex of the state after each of count steps from (xs, ms),
    ending at the text of the first OrderingViolatedError."""
    out = []
    for _ in range(count):
        try:
            xs, ms = step(xs, ms, h)
        except OrderingViolatedError as e:
            return out + [str(e)]
        out.append([v.hex() for v in xs + ms])
    return out


@st.composite
def float_waves(draw):
    # wide waves, with gaps and masses up to 1e300, reach inf and nan
    # within a step, and a gap lost to rounding leaves two peaks out of
    # order before the first step
    n = draw(st.integers(1, 40))
    spread = st.floats(1e-3, 1e300 if draw(st.booleans()) else 4.0)
    xs = [draw(st.floats(-1e3, 1e3))]
    for gap in draw(st.lists(spread, min_size=n - 1, max_size=n - 1)):
        xs.append(xs[-1] + gap)
    return xs, draw(st.lists(spread, min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(float_waves(),
       st.sampled_from((1e-300, 1e-3, 0.01, 0.1, 0.5, 2.0, 1e3)))
@example(([0.0, 1.0], [1.0, 100.0]), 0.5)  # a stage breaks the order
@example(([1.0, 2.0], [1e300, 1.0]), 1e-100)  # nan positions, inf masses
@example(([1.0, 2.0, 3.0], [1e300, 1e-3, 1e100]), 0.5)  # all nan
@example(([0.0, inf], [1.0, 1.0]), 0.1)  # a peak at inf
def test_rk4_step_is_the_reference_to_the_bit(wave, h):
    xs, ms = wave
    assert (_rk4_steps(burgers._rk4_step, xs, ms, h, 5)
            == _rk4_steps(rk4_step_reference, xs, ms, h, 5))


def test_flow_closed_form_limits_at_four_masses():
    # with C, I, S the corner, inner and shifted minors and a = 1/(2M):
    # as sigma -> inf (t -> +inf), m_1 -> M and every other mass decays
    # like sigma^-2, sigma^2 m_{4-k} -> S[k]^2 / (2 C[k+1] C[k]) (C[4] = 0,
    # the table has rank 3, so m_1 does not decay); as sigma -> 0, m_4 -> M
    # and sigma^-2 m_{4-k} -> S[k]^2 / (2 a^2 I[k] I[k-1]).  Each limit is
    # pinned with its O(sigma^-2) (or O(sigma^2)) correction: the error at
    # sigma = 2^32 is 2^-32 times the error at 2^16, up to a factor 2
    for seed in range(3):
        sd = random_spectral(4, seed)
        total, a = sd.total_mass, 1 / (2 * sd.total_mass)
        mm = moment_minors(bimoments(sd, 3))
        c, inner, s = mm.corner, mm.inner, mm.shifted
        assert c[4] == 0
        # leading coefficients: of M - m_1, m_2, m_3, m_4 as sigma -> inf
        up = [s[2] ** 2 / (2 * c[3] * c[2]), s[1] ** 2 / (2 * c[2] * c[1]),
              1 / (2 * c[1])]
        high = [sum(up)] + up
        # and of m_1, m_2, m_3, M - m_4 as sigma -> 0
        down = [s[k] ** 2 / (2 * a * a * inner[k] * inner[k - 1])
                for k in (3, 2, 1)]
        low = down + [sum(down)]

        def rise(j, e):
            m = flow_closed_form(sd, F(2 ** e)).masses
            return (total - m[0] if j == 0 else m[j]) * 2 ** (2 * e) - high[j]

        def fall(j, e):
            m = flow_closed_form(sd, F(1, 2 ** e)).masses
            return (total - m[3] if j == 3 else m[j]) * 2 ** (2 * e) - low[j]

        for j in range(4):
            for err in (rise, fall):
                r = err(j, 32) / err(j, 16)
                assert F(1, 2 ** 33) < abs(r) < F(1, 2 ** 31), (seed, j)


def _exact(pairs) -> list:
    return [F(num, den) for num, den in pairs]


@settings(max_examples=40)
@given(strings(max_n=8))
def test_invariant_masses_are_the_chain_sums_by_subsets(s):
    # the recurrence against the definition, a sum over all 2^n - 1
    # index subsets, on random rational strings
    xs = positions(s)
    assert (_exact(invariant_masses(s.masses, xs))
            == chain_sums_by_subsets(s.masses, xs))


@st.composite
def double_waves(draw, max_n=40):
    """A wave of 1 to max_n peaks at distinct doubles, with masses and
    positions of moderate size or, in some, spread over 2^-300 to
    2^300."""
    n = draw(st.integers(1, max_n))
    top = 2.0 ** 300 if draw(st.booleans()) else 8.0
    low = 1 / top if top > 8 else 0.125
    xs = sorted(draw(st.lists(st.floats(-top, top), min_size=n, max_size=n,
                              unique=True)))
    ms = draw(st.lists(st.floats(low, top), min_size=n, max_size=n))
    return WaveState(0.0, tuple(xs), tuple(ms))


@settings(max_examples=40)
@given(double_waves())
@example(WaveState(0.0, (-2.0, -1.0, 0.0), (1e300, 1e100, 1.0)))
def test_invariant_masses_are_phi_xx_on_waves_of_doubles(wave):
    # exactly the M_j off phi_xx of the crossing of the wave's rational
    # string, and conserved_floats gives float() of each, to the bit,
    # or names the first that float() cannot hold
    want = chain_off_phi_xx(boundary_data(rationalize(wave)).phi_xx)
    assert _exact(invariant_masses(wave.momenta, wave.positions)) == want
    doubles = []
    for j, v in enumerate(want, 1):
        try:
            doubles.append(float(v).hex())
        except OverflowError:
            with pytest.raises(FlowOutOfRangeError,
                               match=f"^M_{j} is past the double range$"):
                conserved_floats(wave)
            return
    assert [v.hex() for v in conserved_floats(wave).higher] == doubles


@settings(max_examples=40)
@given(strings(), st.fractions(min_value=F(1, 10 ** 6), max_value=10 ** 6,
                               max_denominator=10 ** 6))
@example(CubicString((F(5, 2),), ()), F(7, 3))
def test_flow_state_on_integers_is_the_fraction_route(s, sigma):
    # one peak included: its mass stays and it has no gap
    assert flow_state(s, sigma) == flow_state_by_fractions(
        s, sum(s.masses), sigma)
