"""Inverse map: bimoments, minors, the approximation chain, recovery."""

import json
import random
from fractions import Fraction

import pytest

from oracles import (
    chain_index,
    moment_minors_by_blocks,
    recurrence_sequences,
    transition,
    verify_approximant,
    verify_weyl_relation,
    weyl_fractions,
)

from cubicstring import forward, inverse
from cubicstring.exact import linalg
from cubicstring.cli import main
from cubicstring.errors import (
    IdentityViolatedError,
    SingularMatrixError,
    SpectralValidationError,
)
from cubicstring.exact import Polynomial
from cubicstring.forward import boundary_data, value_residues
from cubicstring.inverse import (
    Approximant,
    BimomentTable,
    _projections,
    SpectralData,
    bimoments,
    moment_minors,
    peel,
    random_spectral,
    recover,
    recover_detailed,
    solve_type1,
    solve_type2,
    solve_type3,
    spectral_from_dict,
    spectral_to_dict,
    table_from_support,
    validate_spectral,
    verify_exact_roundtrip,
)
from cubicstring.string_model import CubicString, string_to_dict

F = Fraction

# the two-mass string with unit masses and unit gap, anchored at zero
TWO_MASS = SpectralData((F(2),), (F(-1),), F(2))


def P(*coeffs):
    return Polynomial(tuple(F(c) for c in coeffs))


def test_validation_rejects_bad_data():
    with pytest.raises(SpectralValidationError):
        validate_spectral(SpectralData((F(2), F(1)), (F(-1), F(-1)), F(1)))
    with pytest.raises(SpectralValidationError):
        validate_spectral(SpectralData((F(0),), (F(-1),), F(1)))
    with pytest.raises(SpectralValidationError):
        validate_spectral(SpectralData((F(1),), (F(1),), F(1)))
    with pytest.raises(SpectralValidationError):
        validate_spectral(SpectralData((F(1),), (F(-1),), F(0)))
    with pytest.raises(SpectralValidationError):
        validate_spectral(SpectralData((F(1), F(2)), (F(-1),), F(1)))


def test_two_mass_bimoments_frozen():
    bt = bimoments(TWO_MASS, 1)
    assert bt.moments == (F(-1), F(-2))
    assert bt.pair_table == ((F(1, 4), F(1, 2)), (F(1, 2), F(1)))
    assert bt.z_residues == (F(-1, 4),)
    assert value_residues(TWO_MASS.eigenvalues, TWO_MASS.residues) == (
        F(-1, 4),)


def test_two_mass_minors_frozen():
    mm = moment_minors(bimoments(TWO_MASS, 1))
    assert mm.mass_corner == (F(1), F(1, 2), F(1, 4))
    assert mm.corner == (F(1), F(1, 4), F(0))
    assert mm.inner == (F(1), F(1))
    assert mm.shifted == (F(1), F(1, 2))
    assert mm.beta_shifted == (F(1), F(-1))
    assert mm.beta_inner == (F(1), F(-1))


def test_pair_table_symmetry_and_value_moments():
    # the value-measure moments are read off the first row of the pair
    # table: sum_k c_k lam_k^j == -I_{0j}
    rng = random.Random(5)
    for _ in range(6):
        sd = random_spectral(rng.randint(1, 6), rng)
        bt = bimoments(sd, sd.n - 1)
        t = bt.pair_table
        for i in range(len(t)):
            for j in range(len(t)):
                assert t[i][j] == t[j][i]
        for j in range(bt.max_order + 1):
            zm = sum((c * lam ** j for lam, c
                      in zip(sd.eigenvalues, bt.z_residues)), F(0))
            assert zm == -t[0][j]


def test_two_mass_approximants_frozen():
    bt = bimoments(TWO_MASS, 1)
    a2 = solve_type1(bt, TWO_MASS, 0)
    assert (a2.den, a2.num_w, a2.num_z) == (P(0, -2), P(0), P(1))
    a3 = solve_type3(bt, TWO_MASS, 1)
    assert (a3.den, a3.num_w, a3.num_z) == (P(1, -1), P(1), P(F(1, 2)))
    a4 = solve_type2(bt, TWO_MASS, 1)
    assert (a4.den, a4.num_w, a4.num_z) == (P(0, -2), P(1), P(1))
    a5 = solve_type1(bt, TWO_MASS, 1)
    assert (a5.den, a5.num_w, a5.num_z) == (P(0, -4, 2), P(0, -2), P(1, -1))
    assert [chain_index(a) for a in (a2, a3, a4, a5)] == [2, 3, 4, 5]
    for a in (a2, a3, a4, a5):
        verify_approximant(TWO_MASS, a)


def test_approximant_conditions_random():
    # the chain's leading coefficients are minor ratios, and they hand
    # back the peeled masses and gaps
    rng = random.Random(6)
    for _ in range(5):
        sd = random_spectral(rng.randint(1, 5), rng)
        n = sd.n
        bt = bimoments(sd, n - 1)
        mm = moment_minors(bt)
        s = recover(sd)
        lead3 = {0: F(1)}
        for k in range(1, n):
            a3, a2 = solve_type3(bt, sd, k), solve_type2(bt, sd, k)
            verify_approximant(sd, a3)
            verify_approximant(sd, a2)
            lead3[k] = a3.den.leading
            assert lead3[k] == (-1) ** k * mm.mass_corner[k] / mm.shifted[k]
            assert a2.den.leading == \
                (-1) ** (k - 1) * mm.beta_shifted[k] / mm.shifted[k]
            assert 2 * lead3[k] / a2.den.leading == s.gaps[n - k - 1]
        for k in range(n):
            a1 = solve_type1(bt, sd, k)
            verify_approximant(sd, a1)
            assert a1.den.leading == \
                (-1) ** (k + 1) * mm.shifted[k] / mm.mass_corner[k + 1]
            assert -a1.den.leading / (2 * lead3[k]) == s.masses[n - k - 1]


def test_approximant_rejections():
    # one coefficient off the two-mass chain breaks one order condition
    with pytest.raises(IdentityViolatedError, match="value-side"):
        verify_approximant(TWO_MASS, Approximant("I", 0, P(0, -1), P(), P(1)))
    with pytest.raises(IdentityViolatedError, match="slope-side"):
        verify_approximant(TWO_MASS, Approximant("III", 1, P(1, -1), P(2),
                                                 P(F(1, 2))))
    # both projections exact, so only the symmetry condition can fail
    den = P(1, -2)
    num_w, num_z = _projections(bimoments(TWO_MASS, 1), TWO_MASS, den)
    with pytest.raises(IdentityViolatedError, match="symmetry"):
        verify_approximant(TWO_MASS, Approximant("III", 1, den, num_w, num_z))


def test_solver_index_ranges():
    bt = bimoments(TWO_MASS, 1)
    for bad in (0, 2):
        with pytest.raises(ValueError):
            solve_type3(bt, TWO_MASS, bad)
        with pytest.raises(ValueError):
            solve_type2(bt, TWO_MASS, bad)
    with pytest.raises(ValueError):
        solve_type1(bt, TWO_MASS, 2)


def test_solvers_singular_past_string_end():
    # with a deeper table the systems past the last mass lose rank
    bt = bimoments(TWO_MASS, 2)
    with pytest.raises(SingularMatrixError):
        solve_type3(bt, TWO_MASS, 2)


def test_weyl_series_and_fractions():
    num_w, den_w, num_z, den_z = weyl_fractions(TWO_MASS)
    assert (num_w, den_w) == (P(-1), P(-2, 1))
    assert (num_z, den_z) == (P(F(1, 2), F(-1, 2)), P(0, -2, 1))


def test_weyl_relation_random():
    verify_weyl_relation(TWO_MASS)
    rng = random.Random(7)
    for _ in range(8):
        verify_weyl_relation(random_spectral(rng.randint(1, 7), rng))


def test_two_mass_recovery_frozen():
    s = recover(TWO_MASS)
    assert s.masses == (F(1), F(1))
    assert s.gaps == (F(1),)
    assert s.anchor == 0


def test_recovery_report_two_mass():
    rep = recover_detailed(TWO_MASS)
    by_k = {r.k: r for r in rep.rows}
    assert by_k[0].mass == by_k[0].mass_cramer == by_k[0].mass_printed == 1
    assert by_k[0].printed_agrees
    # the printed closed form disagrees as soon as inner != shifted
    assert by_k[1].mass == by_k[1].mass_cramer == 1
    assert by_k[1].mass_printed == 2
    assert not by_k[1].printed_agrees
    assert by_k[1].gap == by_k[1].gap_determinant == 1
    json.dumps(rep.to_dict())  # wire-safe


def test_minor_signs_and_corner_vanishing():
    rng = random.Random(9)
    for _ in range(6):
        sd = random_spectral(rng.randint(1, 6), rng)
        n = sd.n
        bt = bimoments(sd, n - 1)
        mm = moment_minors(bt)
        for k in range(n):
            assert mm.shifted[k] > 0
            assert mm.inner[k] > 0
            assert mm.corner[k] > 0
        assert mm.corner[n] == 0  # the pair table has rank n-1
        for k in range(n + 1):
            assert mm.mass_corner[k] > 0
        for k in range(1, n):
            assert mm.beta_shifted[k] < 0
            assert mm.beta_inner[k] < 0
        # corner splitting: mass_corner = corner + inner'/(2M)
        for k in range(1, n + 1):
            assert mm.mass_corner[k] == mm.corner[k] \
                + mm.inner[k - 1] / (2 * bt.total_mass)


def test_spectral_first_roundtrip():
    rng = random.Random(10)
    for _ in range(8):
        sd = random_spectral(rng.randint(1, 6), rng)
        s = recover(sd)
        assert sum(s.masses) == sd.total_mass
        wd = boundary_data(s)
        z = Polynomial.x()
        expect = Polynomial.constant(-2 * sd.total_mass) * z
        for lam in sd.eigenvalues:
            expect = expect * (Polynomial.one()
                               - z * Polynomial.constant(1 / lam))
        assert wd.phi_xx == expect
        da = wd.phi_xx.derivative()
        cs = value_residues(sd.eigenvalues, sd.residues)
        for lam, b, c in zip(sd.eigenvalues, sd.residues, cs):
            assert wd.phi_xx(lam) == 0
            assert wd.phi_x(lam) == b * da(lam)
            assert wd.phi(lam) == c * da(lam)


def test_chain_matches_transition_columns():
    rng = random.Random(11)
    for _ in range(4):
        sd = random_spectral(rng.randint(2, 5), rng)
        n = sd.n
        bt = bimoments(sd, n - 1)
        s = recover(sd)
        for k in range(n):
            a = transition(s, 2 * k + 1)
            apps = [solve_type1(bt, sd, k)]
            if k >= 1:
                apps += [solve_type3(bt, sd, k), solve_type2(bt, sd, k)]
            for app in apps:
                col = {"III": 2, "II": 1, "I": 0}[app.kind]
                assert app.num_z == a[0][col]
                assert app.num_w == a[1][col]
                assert app.den == a[2][col]


def test_recurrence_reproduces_chain():
    rng = random.Random(12)
    for _ in range(4):
        sd = random_spectral(rng.randint(1, 5), rng)
        n = sd.n
        bt = bimoments(sd, n - 1)
        s = recover(sd)
        phat, q, p = recurrence_sequences(s)
        for k in range(n):
            apps = [solve_type1(bt, sd, k)]
            if k >= 1:
                apps += [solve_type3(bt, sd, k), solve_type2(bt, sd, k)]
            for app in apps:
                j = chain_index(app)
                assert q[j] == app.den, (n, j)
                assert p[j] == app.num_w, (n, j)
                assert phat[j] == app.num_z, (n, j)


def test_recover_with_scaled_residues():
    # residues scaled by sigma are the flow's data at e^(Mt) = sigma
    for sigma in (F(3, 2), F(2, 7), F(5)):
        for n in range(1, 8):
            for seed in range(3):
                sd0 = random_spectral(n, seed)
                sd = SpectralData(sd0.eigenvalues,
                                  tuple(b * sigma for b in sd0.residues),
                                  sd0.total_mass)
                s = verify_exact_roundtrip(sd)
                assert s == recover(sd) == recover_detailed(sd).string


def test_peel_refuses_a_wrong_triple():
    # the boundary triple of a string with one coefficient off: a
    # degree check or the end check must fire
    z = Polynomial.x()
    two = boundary_data(CubicString((F(1), F(1)), (F(1),)))
    assert peel((two.phi, two.phi_x, two.phi_xx)) == recover(TWO_MASS)
    with pytest.raises(IdentityViolatedError, match="mass 1: degrees"):
        peel((two.phi + 2, two.phi_x, two.phi_xx))
    with pytest.raises(IdentityViolatedError, match="gap 1: degrees"):
        peel((two.phi, two.phi_x + z * 2, two.phi_xx))
    one = boundary_data(CubicString((F(7, 3),), ()))
    with pytest.raises(IdentityViolatedError, match=r"\(1, 0, 0\)"):
        peel((one.phi * 2, one.phi_x, one.phi_xx))


def counting_det_exact(monkeypatch):
    """The det_exact calls made under both of its names, by size."""
    calls = []
    det_exact = linalg.det_exact

    def counting(m):
        calls.append(m.nrows)
        return det_exact(m)

    monkeypatch.setattr(linalg, "det_exact", counting)
    monkeypatch.setattr(inverse, "det_exact", counting)
    return calls


def test_determinant_audit_runs_no_per_size_determinant(monkeypatch):
    # each minor family is read off one elimination: a zero-free audit at
    # n = 14 calls det_exact under neither of its names (86 calls when
    # every size had its own determinant)
    calls = counting_det_exact(monkeypatch)
    report = recover_detailed(random_spectral(14, 14))
    assert len(report.minors.corner) == 15
    assert calls == []


def test_recover_needs_no_determinant(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("determinant route called")

    for name in ("det_exact", "solve_exact", "moment_minors"):
        monkeypatch.setattr(inverse, name, refuse)
    sd = random_spectral(6, 2)
    s = recover(sd)
    assert verify_exact_roundtrip(sd) == s
    p = tmp_path / "sd.json"
    p.write_text(json.dumps(spectral_to_dict(sd)), encoding="utf-8")
    assert main(["invert", str(p)]) == 0
    assert json.loads(capsys.readouterr().out) == string_to_dict(s)
    with pytest.raises(AssertionError, match="determinant route"):
        recover_detailed(sd)


# signed weights whose pair tables lose a pivot inside the support.  At
# the mixed-sign points (-5, 2, 3) these weights make I_11 = inner[1]
# vanish, the first pivot of the elimination of columns 1..N, so every
# later inner, shifted, beta_inner and beta_shifted minor, and the
# corner after it, is det_exact of its own block; weights summing to
# zero make shifted[1] = I_10 = beta_0^2 / 2 vanish, which is a border
# entry of that elimination and not a pivot, so no det_exact is called
ZERO_PIVOT_TABLES = [
    ("inner", (-5, 2, 3), (-3, 20, 3)),
    ("shifted", (1, 2, 4), (1, 2, -3)),
]


@pytest.mark.parametrize("family,lams,bs", ZERO_PIVOT_TABLES)
def test_moment_minors_past_a_zero_pivot_inside_the_support(
        monkeypatch, family, lams, bs):
    calls = counting_det_exact(monkeypatch)
    bt = table_from_support(lams, bs, F(3, 2), 4)
    mm = moment_minors(bt)
    minors = getattr(mm, family)
    # zero at size 1, nonzero through the support of 3, zero past it
    assert minors[1] == 0 and 0 not in minors[2:4] and minors[4] == 0
    assert bool(calls) == (family == "inner")
    monkeypatch.undo()
    assert mm == moment_minors_by_blocks(bt)


def test_moment_minors_past_an_inner_pivot_of_size_two(monkeypatch):
    # weights b_a lam_a summing to zero with I_22 = 0 make inner[2] =
    # I_11 I_22 - I_12^2 = I_11 I_22 - beta_1^4 / 4 vanish at the points
    # (-3, 5, 7): elimination stops at its second pivot, and the minors
    # of sizes 3 and 4 come from their own blocks
    calls = counting_det_exact(monkeypatch)
    bt = table_from_support((-3, 5, 7), (-7, 63, -48), F(3, 2), 4)
    mm = moment_minors(bt)
    assert mm.inner[1] != 0 and mm.inner[2] == 0 and mm.inner[3] != 0
    assert 3 in calls and 4 in calls
    monkeypatch.undo()
    assert mm == moment_minors_by_blocks(bt)


def test_moment_minors_refuse_an_asymmetric_table():
    # symmetric but for I_02 = 3 against I_20 = 4: the extra row's minor
    # det [[5, 7], [2, 3]] = 1 is not the column-0 border det [[5, 2],
    # [7, 4]] = 6, the same minor of the transposed block
    bt = BimomentTable(F(1), (F(1), F(2), F(3)),
                       ((F(1), F(2), F(3)),
                        (F(2), F(5), F(7)),
                        (F(4), F(7), F(11))), ())
    with pytest.raises(IdentityViolatedError, match="transpose"):
        moment_minors(bt)


def test_pair_table_matches_the_double_sum():
    rng = random.Random(12)
    for n in (1, 2, 4, 7, 9):
        sd = random_spectral(n, rng)
        lams, bs = sd.eigenvalues, sd.residues
        bt = table_from_support(lams, bs, sd.total_mass, n)
        for i in range(n + 1):
            for j in range(n + 1):
                assert bt.pair_table[i][j] == sum(
                    (ba * bb * la ** i * lb ** j / (la + lb)
                     for la, ba in zip(lams, bs) for lb, bb in zip(lams, bs)),
                    F(0))


def test_recover_and_boundary_data_share_the_crossing_steps(monkeypatch):
    calls = []
    for name in ("jump_step", "gap_step"):
        step = getattr(forward, name)

        def counted(triple, value, name=name, step=step):
            calls.append((name, value))
            return step(triple, value)

        monkeypatch.setattr(forward, name, counted)
        monkeypatch.setattr(inverse, name, counted)

    assert not hasattr(forward, "transition")
    s = recover(random_spectral(5, 3))
    peeled = calls[:]
    calls.clear()
    boundary_data(s)
    assert calls[::2] == [("jump_step", m) for m in s.masses]
    assert calls[1::2] == [("gap_step", g) for g in s.gaps]
    # the peel runs the same steps backwards with negated values
    assert peeled == [(name, -v) for name, v in reversed(calls)]


def test_single_mass_recovery():
    sd = SpectralData((), (), F(7, 3))
    s = recover(sd)
    assert s.masses == (F(7, 3),)
    assert s.gaps == ()


def test_random_spectral_deterministic_and_wire():
    a = random_spectral(4, 17)
    b = random_spectral(4, 17)
    assert a == b
    validate_spectral(a)
    again = spectral_from_dict(spectral_to_dict(a))
    assert again == a
    with pytest.raises(ValueError):
        spectral_from_dict({"lambdas": ["1"]})
