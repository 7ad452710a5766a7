"""Acceptance gate: nine criteria, one test and one printed line each.

Every equality here is exact rational arithmetic unless a tolerance is
stated next to the assertion.  Criteria 1 and 7 carry runtime budgets;
they are asserted, not just observed.
"""

import json
import math
import random
import time
from fractions import Fraction as F

from conftest import random_string
from oracles import (
    chain_index,
    chain_sums_by_subsets,
    check_automorphism,
    float_spectrum_oracle,
    flow_triple,
    is_totally_nonnegative,
    oscillatory_matrices,
    path_matrix,
    recurrence_sequences,
    reflected,
    transition,
    verify_approximant,
)

from cubicstring.burgers import (
    WaveState,
    evolve_spectral,
    evolve_spectral_exact,
    integrate_rk4,
    rationalize,
    scale_factor,
    spectral_snapshot,
)
from cubicstring.exact import Polynomial, RatInterval, det_exact
from cubicstring.forward import boundary_data, residues, spectrum
from cubicstring.heine import measure_table, random_measure, run_checks
from cubicstring.inverse import (
    SpectralData,
    bimoments,
    moment_minors,
    random_spectral,
    recover,
    recover_detailed,
    solve_type1,
    solve_type2,
    solve_type3,
    verify_exact_roundtrip,
)
from cubicstring.string_model import CubicString, positions


def criterion_1_instances():
    for i in range(100):
        yield random_spectral(i % 6 + 1, 1000 + i)


def test_criterion_1_exact_spectral_roundtrip():
    start = time.perf_counter()
    count = 0
    for sd in criterion_1_instances():
        verify_exact_roundtrip(sd)
        count += 1
    elapsed = time.perf_counter() - start
    assert count == 100
    assert elapsed < 30.0
    print(f"criterion 1: PASS - {count} exact recover->forward roundtrips, "
          f"n in 1..6, zero tolerance, {elapsed:.2f}s")


def test_criterion_2_worked_two_mass_instance():
    s = CubicString((F(1), F(1)), (F(1),))
    wd = residues(spectrum(boundary_data(s)))
    assert wd.eigenvalues == (RatInterval.point(F(2)),)
    assert wd.w_residues == (RatInterval.point(F(-1)),)
    assert wd.z_residues == (RatInterval.point(F(-1, 4)),)
    assert sum(s.masses) == F(2)
    rec = recover(SpectralData((F(2),), (F(-1),), F(2)))
    assert rec.masses == (F(1), F(1))
    assert rec.gaps == (F(1),)
    print("criterion 2: PASS - m=(1,1), l=(1) <-> lambda=2, b=-1, M=2, "
          "c=-1/4, exact both directions")


def test_criterion_3_weyl_identities():
    rng = random.Random(3)
    zero = Polynomial.zero()
    for _ in range(100):
        s = random_string(rng, rng.randint(1, 8))
        wd = boundary_data(s)
        a, b, c = wd.phi_xx, wd.phi_x, wd.phi
        assert reflected(a) * c - reflected(b) * b + reflected(c) * a == zero
        check_automorphism(s)
    print("criterion 3: PASS - boundary form and crossing symmetry exact "
          "on 100 random strings, n <= 8")


def test_criterion_4_conserved_quantity_bridge():
    rng = random.Random(4)
    count = 0
    for _ in range(60):
        s = random_string(rng, rng.randint(1, 8))
        a = boundary_data(s).phi_xx
        mks = chain_sums_by_subsets(s.masses, positions(s))
        assert a.coefficient(0) == 0
        assert a.degree == s.n
        for k, mk in enumerate(mks, start=1):
            assert a.coefficient(k) == 2 * (-1) ** k * mk
            count += 1
    print(f"criterion 4: PASS - {count} combinatorial M_k coefficients "
          "match A(z) exactly, n <= 8")


def test_criterion_5_oscillatory_cross_check():
    rng = random.Random(5)
    for _ in range(10):
        s = random_string(rng, rng.randint(2, 6))
        stiff, gram = oscillatory_matrices(s)
        denom = math.prod(s.masses, start=F(1))
        assert det_exact(stiff) == sum(s.masses) / denom
        assert gram.rows == path_matrix(s.n - 1, s.gaps).rows
        # n <= 6 keeps the matrix at most 5x5: every minor has size <= 5
        assert is_totally_nonnegative(gram)
        floats = float_spectrum_oracle(s)
        wd = spectrum(boundary_data(s))
        assert len(floats) == len(wd.eigenvalues)
        for fv, enc in zip(floats, wd.eigenvalues):
            ev = float(enc.lo)
            assert abs(fv - ev) <= 1e-9 * abs(ev)
    print("criterion 5: PASS - float eigenvalue reciprocals within 1e-9 "
          "relative; stiffness determinant, path matrix, and total "
          "nonnegativity exact")


def test_criterion_6_approximation_problem_suite():
    rng = random.Random(6)
    checked = 0
    for n in (1, 2, 3, 4, 5):
        for _ in range(2):
            sd = random_spectral(n, rng)
            bt = bimoments(sd, n - 1)
            s = recover(sd)
            phat, q, p = recurrence_sequences(s)
            for k in range(n):
                apps = [solve_type1(bt, sd, k)]
                if k >= 1:
                    apps += [solve_type3(bt, sd, k), solve_type2(bt, sd, k)]
                full = transition(s, 2 * k + 1)
                for app in apps:
                    verify_approximant(sd, app)
                    col = {"III": 2, "II": 1, "I": 0}[app.kind]
                    assert app.num_z == full[0][col]
                    assert app.num_w == full[1][col]
                    assert app.den == full[2][col]
                    j = chain_index(app)
                    assert q[j] == app.den
                    assert p[j] == app.num_w
                    assert phat[j] == app.num_z
                    checked += 1
    print(f"criterion 6: PASS - {checked} approximants satisfy degrees, "
          "normalizations, order conditions, transition columns, and the "
          "four-term recurrence, zero tolerance")


def test_criterion_7_heine_oracle():
    start = time.perf_counter()
    rng = random.Random(7)
    rows = 0
    for support in (1, 2, 3, 4):
        mu = random_measure(support, rng)
        report = run_checks(mu, k_max=4)
        assert report.all_pass, [r.name for r in report.rows if not r.passed]
        rows += len(report.rows)
        # corner minors vanish exactly one step past the support size
        corner = moment_minors(measure_table(mu, support + 1)).corner
        assert corner[support] != 0
        assert corner[support + 1] == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 7: PASS - {rows} identity rows exact on measures "
          f"with 1..4 support points, k <= 4, {elapsed:.2f}s")


def test_criterion_8_recovery_formula_audit():
    reports = []
    printed_divergences = 0
    for sd in criterion_1_instances():
        # recover_detailed enforces the determinant gap formula and the
        # Cramer mass form against the peeled string
        report = recover_detailed(sd)
        doc = report.to_dict()
        for row in doc["steps"]:
            assert row["mass"] == row["mass_cramer"]
            if row.get("gap") is not None:
                assert row["gap"] == row["gap_determinant"]
            if not row["printed_agrees"]:
                printed_divergences += 1
        reports.append(doc)
        verify_exact_roundtrip(sd)
    emitted = json.dumps(reports)
    assert len(reports) == 100 and emitted
    print(f"criterion 8: PASS - 100 audit reports emitted; gap and Cramer "
          f"forms always match; printed mass form diverges on "
          f"{printed_divergences} steps; the peeled string roundtrips")


CRITERION_9_STRINGS = (
    CubicString((F(2),), (), F(1, 2)),
    CubicString((F(1), F(3, 2)), (F(1),)),
    CubicString((F(1), F(2), F(1)), (F(1), F(1, 2))),
)


def test_criterion_9_burgers_evolution():
    times = [0.0, 0.5, 1.0]
    for s in CRITERION_9_STRINGS:
        state = WaveState(0.0,
                          tuple(float(x) for x in positions(s)),
                          tuple(float(m) for m in s.masses))
        coarse = integrate_rk4(state, 1e-3, 1.0, samples=3)
        c0 = coarse.samples[0][2]
        for _, _, cs in coarse.samples:
            assert abs(cs.total_mass - c0.total_mass) <= 1e-8 * abs(c0.total_mass)
            assert abs(cs.first_moment - c0.first_moment) <= 1e-8 * abs(c0.first_moment)
            for a, b in zip(cs.higher, c0.higher):
                assert abs(a - b) <= 1e-8 * abs(b)
        lam0 = [float(e.lo) for e in
                spectrum(boundary_data(rationalize(state)), 96).eigenvalues]
        for _, st, _ in coarse.samples:
            lam_t = [float(e.lo) for e in
                     spectrum(boundary_data(rationalize(st)), 96).eigenvalues]
            for a, b in zip(lam_t, lam0):
                assert abs(a - b) <= 1e-6 * abs(b)
        reference = integrate_rk4(state, 1e-5, 1.0, samples=3)
        spectral = evolve_spectral(state, times)
        for (_, ref, _), (_, spc, _) in zip(reference.samples, spectral.samples):
            for a, b in zip(ref.positions, spc.positions):
                assert abs(a - b) <= 1e-6
            for a, b in zip(ref.momenta, spc.momenta):
                assert abs(a - b) <= 1e-6
        _, rows = evolve_spectral_exact(state, times)
        wd0, _ = spectral_snapshot(rationalize(state))
        total = sum(s.masses)
        for t, s_t in rows[1:]:
            # W scales by sigma, the c_k of Z by sigma^2, exactly: the
            # string at t crosses to the scaled t = 0 triple
            wd = boundary_data(s_t)
            assert any((wd.phi, wd.phi_x, wd.phi_xx)
                       == flow_triple(wd0, total, sigma)
                       for sigma, _ in scale_factor(total, t))
    print("criterion 9: PASS - RK4 conservation within 1e-8 relative, "
          "spectra stationary within 1e-6 relative, spectral route within "
          "1e-6 of the dt=1e-5 reference, boundary triple exactly scaled")
