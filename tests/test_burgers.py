"""Peak dynamics: RK4 route, spectral route, conservation."""

import random
import time
from fractions import Fraction

import pytest

from oracles import conserved

from cubicstring import burgers
from cubicstring.burgers import (
    MAX_RK4_STEPS,
    Trajectory,
    WaveState,
    evolve_spectral,
    conserved_floats,
    evolve_spectral_exact,
    flow_triple,
    integrate_rk4,
    rationalize,
    scale_factor,
    spectral_snapshot,
)
from cubicstring.errors import (
    EmptyStringError,
    FlowOutOfRangeError,
    NonPositiveMassError,
    OrderingViolatedError,
)
from cubicstring import forward
from cubicstring.exact import Polynomial
from cubicstring.forward import boundary_data, invariant_masses, spectrum
from cubicstring.inverse import random_spectral, recover, z_residues_of
from cubicstring.string_model import positions

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


def test_rhs_frozen_cases():
    dx, dm = burgers._rhs_arrays((3.0,), (2.0,))
    assert dx == [0.0] and dm == [0.0]
    dx, dm = burgers._rhs_arrays(SYMMETRIC.positions, SYMMETRIC.momenta)
    assert dx == [1.0, 1.0]
    assert dm == [2.0, -2.0]


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
    wd, first = spectral_snapshot(rationalize(SYMMETRIC))
    assert wd.phi == Polynomial((1, -1))
    assert wd.phi_x == Polynomial((0, -2))
    assert wd.phi_xx == Polynomial((0, -4, 2))  # eigenvalue 2, M = 2
    assert first == 1


def test_scale_factor_accuracy():
    import math
    sigma = scale_factor(F(2), 0.5, 128)
    assert sigma > 0
    assert abs(float(sigma) - math.e) < 1e-15
    assert scale_factor(F(3), 0.0, 64) == 1


def test_evolve_spectral_time_zero_roundtrip():
    # sigma = 1 leaves the triple as it is, and the peel undoes the
    # crossing exactly: the t = 0 row is the input string itself
    for s0 in (SYMMETRIC,
               WaveState(0.0, (-0.3, 0.45, 1.2), (0.8, 1.1, 0.6)),
               WaveState(2.5, (0.1,), (0.7,))):
        _, rows = evolve_spectral_exact(s0, [s0.time], precision_bits=128)
        assert rows == [(s0.time, rationalize(s0))]


def test_residue_scaling_is_exactly_squared():
    # on a string with a rational spectrum the residues are exact values
    sd = random_spectral(4, 3)
    wd = boundary_data(recover(sd))
    sigma = scale_factor(sd.total_mass, 0.7, 96)
    phi, phi_x, phi_xx = flow_triple(wd, sd.total_mass, sigma)
    assert phi_xx == wd.phi_xx
    da = phi_xx.derivative()
    for lam, b, c in zip(sd.eigenvalues, sd.residues, z_residues_of(sd)):
        assert phi_x(lam) / da(lam) == sigma * b
        assert phi(lam) / da(lam) == sigma ** 2 * c
    assert phi(0) / da(0) == -1 / (2 * sd.total_mass)  # the atom stays


def test_spectral_route_conserves_exactly():
    times = [0.0, 0.3, 1.0]
    cs, rows = evolve_spectral_exact(SYMMETRIC, times, precision_bits=128)
    assert cs.first_moment == 1 and cs.higher == (2, 1)
    for _, s in rows:
        # M, the pinned M+ and the chain invariants of phi_xx, exactly
        assert conserved(s) == cs


def test_spectral_route_matches_rk4():
    reference = integrate_rk4(SYMMETRIC, 1e-4, 1.0, samples=3)
    spectral = evolve_spectral(SYMMETRIC, [t for t, _, _ in reference.samples],
                               precision_bits=128)
    for (t1, a, _), (t2, b, _) in zip(reference.samples, spectral.samples):
        assert t1 == t2
        for p, q in zip(a.positions, b.positions):
            assert abs(p - q) <= 1e-6
        for p, q in zip(a.momenta, b.momenta):
            assert abs(p - q) <= 1e-6


def test_rk4_states_stay_isospectral():
    tr = integrate_rk4(SYMMETRIC, 1e-3, 1.0, samples=3)
    for _, state, _ in tr.samples:
        box, = spectrum(rationalize(state), 96).eigenvalues
        lam = float(box.midpoint)
        assert abs(lam - 2.0) / 2.0 <= 1e-6


def test_rk4_chain_invariants_are_rounded_exact_values():
    s0 = WaveState(0.0, (-2.0, -0.5, 0.25, 1.0), (0.75, 1.5, 0.5, 1.25))
    tr = integrate_rk4(s0, 1e-2, 0.3, samples=4)
    for _, state, c in tr.samples:
        exact = conserved(rationalize(state)).higher
        assert c.higher == tuple(float(v) for v in exact)
        assert c.total_mass == sum(state.momenta)


def test_spectral_route_reads_chain_invariants_once(monkeypatch):
    calls = []

    def counted(phi_xx):
        calls.append(phi_xx)
        return invariant_masses(phi_xx)

    monkeypatch.setattr(burgers, "invariant_masses", counted)
    times = [0.0, 0.25, 0.5, 0.75, 1.0]
    rows = evolve_spectral(SYMMETRIC, times, precision_bits=64).samples
    assert len(calls) == 1
    _, exact = evolve_spectral_exact(SYMMETRIC, times, precision_bits=64)
    for (_, _, c), (_, s) in zip(rows, exact):
        assert boundary_data(s).phi_xx == calls[0]
        assert c.higher == tuple(float(v) for v in conserved(s).higher)


def test_burgers_reads_boundary_data_through_forward(monkeypatch):
    # a wrapper on forward.boundary_data sees the crossings of both routes
    calls = []

    def counted(s):
        calls.append(s)
        return boundary_data(s)

    monkeypatch.setattr(forward, "boundary_data", counted)
    conserved_floats(SYMMETRIC)
    assert calls == [rationalize(SYMMETRIC)]
    evolve_spectral(SYMMETRIC, [0.0, 0.5, 1.0], precision_bits=64)
    assert calls == [rationalize(SYMMETRIC)] * 2


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


@pytest.mark.parametrize("bits", [-5, 0])
def test_library_rejects_non_positive_precision_bits(bits):
    with pytest.raises(ValueError, match="precision bits"):
        evolve_spectral_exact(SYMMETRIC, [0.0], bits)


def test_one_peak_never_builds_the_flow_factor(monkeypatch):
    # one mass has M = m: its triple (1, 0, -2mz) is the same at every sigma
    def refuse(*args):
        raise AssertionError("scale_factor called on one peak")

    monkeypatch.setattr(burgers, "scale_factor", refuse)
    s0 = WaveState(0.5, (-3.0,), (2.5,))
    cs, rows = evolve_spectral_exact(s0, [0.5, 1.0, 40.0], 16384)
    assert [s for _, s in rows] == [rationalize(s0)] * 3
    assert cs.higher == (F(5, 2),)


def test_scale_factor_overflow_is_a_domain_error():
    with pytest.raises(FlowOutOfRangeError):
        scale_factor(F(4), 1e300, 128)
