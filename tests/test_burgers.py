"""Peak dynamics: RK4 route, spectral route, conservation."""

import math
import random
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import islice

import pytest

from cli_identity import spread_wave
from oracles import conserved, flow_reference, flow_triple, invariant_masses

from cubicstring import burgers
from cubicstring.burgers import (
    MAX_RK4_STEPS,
    Trajectory,
    WaveState,
    evolve_spectral,
    conserved_floats,
    evolve_spectral_exact,
    integrate_rk4,
    rationalize,
    scale_factor,
    spectral_snapshot,
    wave_state,
)
from cubicstring.errors import (
    EmptyStringError,
    FlowOutOfRangeError,
    NonPositiveMassError,
    OrderingViolatedError,
)
from cubicstring import forward
from cubicstring.forward import (
    boundary_data,
    spectrum,
    value_residues,
)
from cubicstring.inverse import random_spectral, recover
from cubicstring.string_model import positions, string_from_dict

F = Fraction

SYMMETRIC = WaveState(0.0, (0.0, 1.0), (1.0, 1.0))


def test_wave_state_validation():
    with pytest.raises(OrderingViolatedError):
        WaveState(0.0, (1.0, 0.0), (1.0, 1.0))
    with pytest.raises(NonPositiveMassError):
        WaveState(0.0, (0.0, 1.0), (1.0, 0.0))
    with pytest.raises(EmptyStringError):
        WaveState(0.0, (), ())
    with pytest.raises(ValueError):
        WaveState(0.0, (0.0, 1.0), (1.0,))
    with pytest.raises(ValueError):
        Trajectory(((1.0, SYMMETRIC, None), (0.5, SYMMETRIC, None)))


def test_a_wave_state_that_is_not_finite_is_out_of_range():
    # RK4 steps that overflow give inf and nan; no such state is a wave
    # the float range holds, nan momenta included, which pass m <= 0
    nan, inf = math.nan, math.inf
    for xs, ms in (((0.0, nan), (1.0, 1.0)), ((0.0, 1.0), (nan, 1.0)),
                   ((-inf, 0.0), (1.0, 1.0)), ((0.0, 1.0), (1.0, inf))):
        with pytest.raises(FlowOutOfRangeError, match="not finite"):
            WaveState(0.0, xs, ms)


def test_rk4_rows_past_the_float_range_name_the_row():
    # a mass of 1e300 overflows the first step to nan positions and
    # infinite masses: the row is the wave leaving the float range
    s0 = WaveState(0.0, (-1.0, 0.0), (1e300, 1.0))
    with pytest.raises(FlowOutOfRangeError, match=(
            "^the wave leaves the float range by t = 1e-99 at dt = 1e-100$")):
        integrate_rk4(s0, 1e-100, 1e-99, samples=2)


def test_chain_invariants_past_the_double_range_name_themselves():
    # M_2 of masses 1e300, 1e100, 1 one apart is about 1e400, on both
    # routes, before any step or row
    s0 = WaveState(0.0, (-2.0, -1.0, 0.0), (1e300, 1e100, 1.0))
    for run in (lambda: integrate_rk4(s0, 0.5, 1.0, samples=2),
                lambda: evolve_spectral(s0, [0.0, 1e-300]),
                lambda: conserved_floats(s0)):
        with pytest.raises(FlowOutOfRangeError,
                           match="^M_2 is past the double range$"):
            run()


def test_rhs_frozen_cases():
    dx, dm = burgers._rhs_arrays((3.0,), (2.0,))
    assert dx == [0.0] and dm == [0.0]
    dx, dm = burgers._rhs_arrays(SYMMETRIC.positions, SYMMETRIC.momenta)
    assert dx == [1.0, 1.0]
    assert dm == [2.0, -2.0]


def test_sums_add_left_to_right():
    # 0.1 + 0.2 + 0.3 added left to right is 0.6000000000000001; builtin
    # sum on floats, compensated since Python 3.12, gives 0.6
    c = conserved_floats(WaveState(0.0, (0.0, 1.0, 2.0), (0.1, 0.2, 0.3)))
    assert c.total_mass == 0.6000000000000001
    dx, dm = burgers._rhs_arrays((0.0, 1.0, 2.0, 3.0), (1.0, 0.1, 0.2, 0.3))
    assert dx == [1.4, 1.7999999999999998, 2.4, 3.4000000000000004]
    assert dm == [1.2000000000000002, -0.1, -0.32000000000000006, -0.78]


def test_rk4_step_out_of_order_and_out_of_range():
    # the first slopes carry the light left peak past the heavy right one
    # by the second stage; a mass of 1e300 overflows the products to inf
    # and nan
    with pytest.raises(OrderingViolatedError) as caught:
        burgers._rk4_step([0.0, 1.0], [1.0, 100.0], 0.5)
    assert str(caught.value) == "peaks out of order: 25.0 !< 1.25"
    xs, ms = burgers._rk4_step([1.0, 2.0], [1e300, 1.0], 1e-100)
    assert all(math.isnan(x) for x in xs) and ms == [-math.inf, math.inf]


def test_rhs_momentum_sum_vanishes():
    rng = random.Random(41)
    for _ in range(10):
        n = rng.randint(1, 6)
        xs = []
        cur = rng.uniform(-2, 0)
        for _ in range(n):
            cur += rng.uniform(0.1, 1.5)
            xs.append(cur)
        ms = [rng.uniform(0.2, 2.0) for _ in range(n)]
        _, dm = burgers._rhs_arrays(xs, ms)
        assert abs(sum(dm)) <= 1e-12


def test_single_peak_is_stationary():
    s0 = WaveState(0.0, (0.7,), (1.3,))
    tr = integrate_rk4(s0, 1e-2, 1.0, samples=5)
    for t, state, c in tr.samples:
        assert state.positions == (0.7,)
        assert state.momenta == (1.3,)
        assert c.total_mass == 1.3


def test_two_peak_conservation_at_small_step():
    tr = integrate_rk4(SYMMETRIC, 1e-3, 1.0, samples=11)
    c0 = tr.samples[0][2]
    assert c0.total_mass == 2.0 and c0.first_moment == 1.0
    assert c0.higher == (2.0, 1.0)
    for _, _, c in tr.samples:
        assert abs(c.total_mass - 2.0) / 2.0 <= 1e-8
        assert abs(c.first_moment - 1.0) <= 1e-8
        assert abs(c.higher[1] - 1.0) <= 1e-8


def test_rk4_fourth_order_convergence():
    def drift(dt):
        tr = integrate_rk4(SYMMETRIC, dt, 1.0, samples=11)
        return max(abs(c.higher[1] - 1.0) for _, _, c in tr.samples)

    ratio = drift(0.05) / drift(0.025)
    assert 8 < ratio < 32  # halving dt cuts the error about 16x


def test_rationalize_is_exact():
    s = rationalize(WaveState(0.0, (0.1, 0.9), (0.5, 1.25)))
    xs = positions(s)
    assert [float(x) for x in xs] == [0.1, 0.9]
    assert [float(m) for m in s.masses] == [0.5, 1.25]


def test_spectral_snapshot_two_mass():
    # masses 1, 1 at 0 and 1: M = 2, M+ = 1 and M_2 = 1 * 1 * 1^2, exact,
    # as integer pairs over the wave's denominators
    assert spectral_snapshot(SYMMETRIC) == ((2, 1), (1, 1),
                                            [(2, 1), (1, 1)])
    # masses 1/2, 5/4 at 1/8 and 7/8, over dm = 4 and dx = 8: M = 7/4,
    # M+ = 37/32 and M_2 = 5/8 (3/4)^2 = 45/128, unreduced
    wave = WaveState(0.0, (0.125, 0.875), (0.5, 1.25))
    assert spectral_snapshot(wave) == ((7, 4), (37, 32),
                                       [(7, 4), (360, 1024)])


def _count_crossings(monkeypatch) -> list:
    built = []
    real = forward.boundary_data
    monkeypatch.setattr(forward, "boundary_data",
                        lambda s: built.append(s) or real(s))
    return built


def test_given_triple_is_not_rebuilt(monkeypatch):
    # neither route builds a boundary triple, at t = 0 or at any later
    # row, and each M_j is still the rounded value read off phi_xx of
    # the exact string: that of s0 on the spectral route, of the row's
    # state on rk4
    s0 = WaveState(0.0, (0.0, 0.75, 2.0), (1.5, 0.5, 1.25))
    built = _count_crossings(monkeypatch)
    spectral = evolve_spectral(s0, [0.0, 0.5, 1.0])
    rk4 = integrate_rk4(s0, 1e-2, 1.0, samples=3)
    assert not built
    monkeypatch.undo()
    start = conserved(rationalize(s0)).higher
    for _, _, c in spectral.samples:
        assert c.higher == tuple(float(v) for v in start)
    for _, state, c in rk4.samples:
        assert c.higher == tuple(
            float(v) for v in conserved(rationalize(state)).higher)


def test_scale_factor_accuracy():
    factors = list(islice(scale_factor(F(2), 2.5), 4))
    assert abs(float(factors[0][0]) - math.exp(5)) < 1e-12
    with localcontext() as ctx:
        ctx.prec = 300
        for k, (sigma, r) in enumerate(factors):
            # sigma has FLOW_START_DIGITS * 2^k digits, and r = 6 * 10^(1-d)
            digits = burgers.FLOW_START_DIGITS * 2 ** k
            assert r == F(6, 10 ** (digits - 1))
            ln = (Decimal(sigma.numerator).ln()
                  - Decimal(sigma.denominator).ln())
            assert abs(F(ln) - 5) <= r
    # e^0 is exactly 1, and needs no doubling
    assert list(scale_factor(F(3), 0.0)) == [(1, 0)]
    # the digits double up to FLOW_MAX_DIGITS, and end there
    digits = [burgers.FLOW_START_DIGITS]
    while digits[-1] < burgers.FLOW_MAX_DIGITS:
        digits.append(min(2 * digits[-1], burgers.FLOW_MAX_DIGITS))
    assert ([r for _, r in scale_factor(F(1, 3), 1.0)]
            == [F(2, 10 ** (d - 1)) for d in digits])


def test_scale_bits_bounds_every_factor_below():
    # the flow stops a row on scale_bits alone, as every factor is at
    # least 2^(scale_bits - 5)
    rng = random.Random(7)
    for _ in range(40):
        total = F(rng.randint(1, 40), rng.randint(1, 7))
        t = rng.choice([-1, 1]) * 10 ** rng.uniform(-3, 3.5)
        low = 2 ** (burgers.scale_bits(total, t) - 5)
        assert all(sigma >= low
                   for sigma, _ in islice(scale_factor(total, t), 3))


def test_evolve_spectral_time_zero_roundtrip():
    # sigma = 1 leaves the triple as it is, and the peel undoes the
    # crossing exactly: the t = 0 row is the input string itself
    for s0 in (SYMMETRIC,
               WaveState(0.0, (-0.3, 0.45, 1.2), (0.8, 1.1, 0.6)),
               WaveState(2.5, (0.1,), (0.7,))):
        _, rows = evolve_spectral_exact(s0, [s0.time])
        assert rows == [(s0.time, rationalize(s0))]


def test_residue_scaling_is_exactly_squared():
    # on a string with a rational spectrum the residues are exact values
    sd = random_spectral(4, 3)
    wd = boundary_data(recover(sd))
    sigma, _ = next(scale_factor(sd.total_mass, 0.7))
    phi, phi_x, phi_xx = flow_triple(wd, sd.total_mass, sigma)
    assert phi_xx == wd.phi_xx
    da = phi_xx.derivative()
    cs = value_residues(sd.eigenvalues, sd.residues)
    for lam, b, c in zip(sd.eigenvalues, sd.residues, cs):
        assert phi_x(lam) / da(lam) == sigma * b
        assert phi(lam) / da(lam) == sigma ** 2 * c
    assert phi(0) / da(0) == -1 / (2 * sd.total_mass)  # the atom stays


def test_evolve_spectral_builds_no_exact_string(monkeypatch):
    # the route carries the integers of the wave's doubles to the doubles
    # it prints: no rational string is built, at t = 0 or at any row
    waves = [WaveState(0.0, (-1.5, -0.5, 0.0), (1.0, 2.0, 1.0)),
             WaveState(0.0, (-2.0, -0.5, 0.25, 1.0), (0.75, 1.5, 0.5, 1.25)),
             WaveState(1.5, (0.1,), (0.7,))]
    times = [0.0, 0.25, 1.0, 3.0]
    want = [evolve_spectral(s0, times) for s0 in waves]

    def refuse(*args):
        raise AssertionError("an exact string was built")

    monkeypatch.setattr(burgers, "CubicString", refuse)
    monkeypatch.setattr(burgers, "rationalize", refuse)
    assert [evolve_spectral(s0, times) for s0 in waves] == want


def test_spectral_route_conserves_exactly():
    times = [0.0, 0.3, 1.0]
    cs, rows = evolve_spectral_exact(SYMMETRIC, times)
    assert cs.first_moment == 1 and cs.higher == (2, 1)
    for _, s in rows:
        # M, the pinned M+ and the chain invariants of phi_xx, exactly
        assert conserved(s) == cs


def _random_wave(rng, n):
    """A wave of n peaks, masses and gaps ratios of small integers over
    a power of two, so the floats are the rationals."""
    def draw():
        return rng.randint(1, 36) / 2 ** rng.randint(0, 2)
    xs = [float(rng.randint(-3, 3))]
    for _ in range(n - 1):
        xs.insert(0, xs[0] - draw())
    return WaveState(0.0, tuple(xs), tuple(draw() for _ in range(n)))


def test_certified_rows_equal_a_2048_bit_peel():
    rng = random.Random(16)
    for _ in range(12):
        s0 = _random_wave(rng, rng.randint(2, 6))
        times = [0.0] + sorted(rng.uniform(0, 25) / sum(s0.momenta)
                               for _ in range(3))
        for t, state, _ in evolve_spectral(s0, times).samples:
            assert (state.positions, state.momenta) == flow_reference(s0, t)
    # masses over 2^-40 to 2^41 and gaps over 2^-40 to 2, to M t = 2
    s0 = wave_state(string_from_dict(spread_wave(random.Random(8), 8, 40)))
    total = sum(s0.momenta)
    for t, state, _ in evolve_spectral(
            s0, [0.0, 0.5 / total, 1 / total, 2 / total]).samples:
        assert (state.positions, state.momenta) == flow_reference(s0, t)
    # M = 1 + 2^-53 (and 1 + 2^-53 + 2^-60) is a tie between two
    # doubles, and the first mass climbs toward it as the others decay
    for ms in ((1.0, 2.0 ** -53), (1.0, 2.0 ** -53, 2.0 ** -60)):
        s0 = WaveState(0.0, tuple(map(float, range(len(ms)))), ms)
        for t, state, _ in evolve_spectral(s0, [0.0, 1.0, 10.0, 30.0]).samples:
            assert (state.positions, state.momenta) == flow_reference(s0, t)
    # at t = 1e-300 a 30-digit e^(M t) is 1, whose peel is the input: the
    # peak at 0 moves to 2.5e-300 only once the digits hold 1 + 4e-300
    s0 = WaveState(0.0, (-1.5, -0.5, 0.0), (1.0, 2.0, 1.0))
    _, (t, state, _) = evolve_spectral(s0, [0.0, 1e-300]).samples
    assert state.positions == (-1.5, -0.5, 2.5e-300)
    assert (state.positions, state.momenta) == flow_reference(s0, t)


def test_an_uncertified_row_doubles_the_digits(monkeypatch):
    # at 3 digits the bound on the time error is far wider than a
    # double's rounding interval: the row is peeled again at 6, 12, ...
    digits = []
    real = burgers._exp_mt

    def spy(total_mass, t, d):
        if d != 8:  # scale_bits' read of each row's size, not a factor
            digits.append(d)
        return real(total_mass, t, d)

    monkeypatch.setattr(burgers, "_exp_mt", spy)
    monkeypatch.setattr(burgers, "FLOW_START_DIGITS", 3)
    s0 = WaveState(0.0, (-1.5, -0.5, 0.0), (1.0, 2.0, 1.0))
    rows = evolve_spectral(s0, [0.0, 0.125]).samples
    assert digits == [3 * 2 ** k for k in range(len(digits))]
    assert len(digits) > 2
    _, state, _ = rows[1]
    assert (state.positions, state.momenta) == flow_reference(s0, 0.125)


def test_spectral_route_matches_rk4():
    reference = integrate_rk4(SYMMETRIC, 1e-4, 1.0, samples=3)
    spectral = evolve_spectral(SYMMETRIC, [t for t, _, _ in reference.samples])
    for (t1, a, _), (t2, b, _) in zip(reference.samples, spectral.samples):
        assert t1 == t2
        for p, q in zip(a.positions, b.positions):
            assert abs(p - q) <= 1e-6
        for p, q in zip(a.momenta, b.momenta):
            assert abs(p - q) <= 1e-6


def test_rk4_states_stay_isospectral():
    tr = integrate_rk4(SYMMETRIC, 1e-3, 1.0, samples=3)
    for _, state, _ in tr.samples:
        box, = spectrum(boundary_data(rationalize(state)), 96).eigenvalues
        lam = float(box.lo)
        assert abs(lam - 2.0) / 2.0 <= 1e-6


def test_rk4_chain_invariants_are_rounded_exact_values():
    s0 = WaveState(0.0, (-2.0, -0.5, 0.25, 1.0), (0.75, 1.5, 0.5, 1.25))
    tr = integrate_rk4(s0, 1e-2, 0.3, samples=4)
    for _, state, c in tr.samples:
        exact = conserved(rationalize(state)).higher
        assert c.higher == tuple(float(v) for v in exact)
        assert c.total_mass == sum(state.momenta)


def test_spectral_route_reads_chain_invariants_once(monkeypatch):
    # the t = 0 string's M_j, by the recurrence, once a run, and no
    # crossing: every row's exact string has the same M_j off phi_xx
    calls = []
    real = burgers.invariant_masses

    def counted(masses, xs):
        calls.append(real(masses, xs))
        return calls[-1]

    monkeypatch.setattr(burgers, "invariant_masses", counted)
    built = _count_crossings(monkeypatch)
    times = [0.0, 0.25, 0.5, 0.75, 1.0]
    rows = evolve_spectral(SYMMETRIC, times).samples
    assert len(calls) == 1 and not built
    monkeypatch.undo()
    _, exact = evolve_spectral_exact(SYMMETRIC, times)
    for (_, _, c), (_, s) in zip(rows, exact):
        assert invariant_masses(boundary_data(s).phi_xx) == [
            F(num, den) for num, den in calls[0]]
        assert c.higher == tuple(float(v) for v in conserved(s).higher)


def test_burgers_reads_boundary_data_through_forward(monkeypatch):
    # the M_j of both routes go through the burgers.invariant_masses
    # global, so a wrapper on it, as the benchmark's tracer puts there,
    # sees each: one a row on rk4 and one a run on the spectral route;
    # a wrapper on forward.boundary_data sees no crossing on either
    calls = []
    real = burgers.invariant_masses
    monkeypatch.setattr(burgers, "invariant_masses",
                        lambda ms, xs: calls.append(len(ms)) or real(ms, xs))
    built = _count_crossings(monkeypatch)
    conserved_floats(SYMMETRIC)
    assert calls == [2]
    evolve_spectral(SYMMETRIC, [0.0, 0.5, 1.0])
    assert calls == [2, 2]
    integrate_rk4(SYMMETRIC, 1e-2, 1.0, samples=3)
    assert calls == [2] * 5
    assert not built


def test_rk4_with_many_peaks_is_fast():
    # the chain invariants of 30 peaks: 2^30 subsets by their definition
    n = 30
    s0 = WaveState(0.0, tuple(float(k) for k in range(n)),
                   tuple(1.0 + k / 64 for k in range(n)))
    start = time.perf_counter()
    tr = integrate_rk4(s0, 1e-4, 1e-4, samples=2)
    assert time.perf_counter() - start < 1.0
    assert all(len(c.higher) == n for _, _, c in tr.samples)


def test_integrator_argument_checks():
    with pytest.raises(ValueError):
        integrate_rk4(SYMMETRIC, 0.0, 1.0)
    with pytest.raises(ValueError):
        integrate_rk4(SYMMETRIC, 1e-2, -1.0)
    with pytest.raises(ValueError):
        integrate_rk4(SYMMETRIC, 1e-2, 1.0, samples=1)
    # over the step cap the run is refused before the first step
    with pytest.raises(ValueError, match="RK4 steps"):
        integrate_rk4(SYMMETRIC, 1e-9, 1.0)
    with pytest.raises(ValueError, match="RK4 steps"):
        integrate_rk4(SYMMETRIC, 1.0, 2.0 * MAX_RK4_STEPS)


def test_rk4_step_cap_counts_peaks():
    # a step on n peaks counts max(1, n^2/9) times: 30 peaks ask 100
    # times the steps, so 2 x 10^4 of them pass the cap of 10^6, and the
    # three-peak message is unchanged
    wide = WaveState(0.0, tuple(float(x) for x in range(30)), (1.0,) * 30)
    with pytest.raises(ValueError, match=(
            "^t_end / dt and 11 rows ask for 2e[+]04 RK4 steps on 30 "
            "peaks, each counted 100 times, over the cap of 1000000$")):
        integrate_rk4(wide, 1e-4, 2.0)
    three = WaveState(0.0, (0.0, 1.0, 2.0), (1.0, 2.0, 3.0))
    with pytest.raises(ValueError, match=(
            "^t_end / dt and 11 rows ask for 1e[+]09 RK4 steps, over the "
            "cap of 1000000$")):
        integrate_rk4(three, 1e-9, 1.0)


def test_rk4_step_count_bounds_the_steps_taken(monkeypatch):
    # a row between two whole steps adds one short step: 1,000 rows 1e-4
    # apart at dt 1e-3 take 1,000 steps, where t_end / dt counts 100
    taken = []
    real = burgers._rk4_step
    monkeypatch.setattr(burgers, "_rk4_step",
                        lambda xs, ms, h: taken.append(h) or real(xs, ms, h))
    for dt, t_end, samples in ((1e-3, 0.1, 1001), (0.03, 1.0, 11),
                               (0.25, 1.0, 5), (0.3, 1.0, 7)):
        taken.clear()
        integrate_rk4(SYMMETRIC, dt, t_end, samples)
        assert len(taken) <= t_end / dt + samples - 1, (dt, samples)
        # and a cap one below the steps taken refuses the run
        monkeypatch.setattr(burgers, "MAX_RK4_STEPS", len(taken) - 1)
        with pytest.raises(ValueError, match="RK4 steps"):
            integrate_rk4(SYMMETRIC, dt, t_end, samples)
        monkeypatch.setattr(burgers, "MAX_RK4_STEPS", MAX_RK4_STEPS)
        if samples == 1001:
            assert len(taken) == 1000


def test_one_peak_never_builds_the_flow_factor(monkeypatch):
    # one mass has M = m: its triple (1, 0, -2mz) is the same at every sigma
    def refuse(*args):
        raise AssertionError("scale_factor called on one peak")

    monkeypatch.setattr(burgers, "scale_factor", refuse)
    s0 = WaveState(0.5, (-3.0,), (2.5,))
    cs, rows = evolve_spectral_exact(s0, [0.5, 1.0, 40.0])
    assert [s for _, s in rows] == [rationalize(s0)] * 3
    assert cs.higher == (F(5, 2),)


def test_scale_factor_overflow_is_a_domain_error():
    with pytest.raises(FlowOutOfRangeError):
        next(scale_factor(F(4), 1e300))
