"""Forward map: crossing matrices, boundary polynomials, spectrum,
residues, and the independent oscillatory route.

The two-mass configuration with unit masses and unit gap is fully
worked by hand and frozen here:
    full crossing = [[1-z, 1, 1/2], [-2z, 1, 1], [2z^2-4z, -2z, 1-z]]
    eigenvalue 2, slope-residue -1, value-residue -1/4.
"""

import random
from fractions import Fraction as F

import numpy as np
import pytest

from cli_identity import ratio_string
from conftest import random_string
from oracles import (
    check_automorphism,
    conserved,
    det_cofactor,
    float_spectrum_oracle,
    free_matrix,
    is_totally_nonnegative,
    jump_matrix,
    mat_mul,
    oscillatory_matrices,
    path_matrix,
    residues_by_hull,
    transition,
)

from cubicstring import forward
from cubicstring.errors import IdentityViolatedError
from cubicstring.exact import Matrix, Polynomial, RatInterval
from cubicstring.exact import roots as roots_module
from cubicstring.forward import (
    WeylData,
    boundary_data,
    decimal_string,
    eigenvalue_polynomial,
    gap_step,
    jump_step,
    residues,
    spectrum,
)
from cubicstring.inverse import random_spectral, recover
from cubicstring.string_model import CubicString, positions, string_from_dict

TWO_MASS = CubicString((F(1), F(1)), (F(1),))


def P(*coeffs):
    return Polynomial(coeffs)


def test_factor_matrices():
    g = jump_matrix(F(3))
    assert g[2][0] == P(0, -6)
    assert g[0][0] == P(1) and g[1][1] == P(1)
    l = free_matrix(F(2))
    assert l[0][1] == P(2) and l[0][2] == P(2)
    assert l[1][2] == P(2)


def test_full_crossing_two_mass_frozen():
    full = transition(TWO_MASS, 3)
    expected = (
        (P(1, -1), P(1), P(F(1, 2))),
        (P(0, -2), P(1), P(1)),
        (P(0, -4, 2), P(0, -2), P(1, -1)),
    )
    assert full == expected
    assert det_cofactor(full) == Polynomial.one()


def test_single_mass_boundary():
    wd = boundary_data(CubicString((F(3),), ()))
    assert wd.phi == Polynomial.one()
    assert wd.phi_x == Polynomial.zero()
    assert wd.phi_xx == P(0, -6)


def test_boundary_data_is_first_column_of_transition():
    for seed in range(3):
        rng = random.Random(seed)
        for n in range(1, 13):
            s = random_string(rng, n)
            full = transition(s, 2 * n - 1)
            wd = boundary_data(s)
            assert (wd.phi, wd.phi_x, wd.phi_xx) == tuple(r[0] for r in full)


def test_steps_are_the_factor_matrices_on_a_column():
    col = (P(1, 2), P(F(1, 3), 0, 5), P(0, -1, F(7, 2)))
    for step, matrix, value in ((jump_step, jump_matrix, F(3, 2)),
                                (gap_step, free_matrix, F(5, 4))):
        out = mat_mul(matrix(value), tuple((p,) for p in col))
        assert step(col, value) == tuple(r[0] for r in out)
        assert step(step(col, value), -value) == col


def test_steps_range():
    for steps in (0, 4):
        with pytest.raises(ValueError, match=r"steps must lie in 1\.\.3"):
            transition(TWO_MASS, steps)
    assert transition(TWO_MASS, 1) == jump_matrix(F(1))


def test_boundary_low_order_coefficients_random():
    rng = random.Random(21)
    for _ in range(20):
        s = random_string(rng, rng.randint(1, 6))
        wd = boundary_data(s)
        c = conserved(s)
        xs = positions(s)
        # curvature carries the conserved chain sums: 2 sum (-z)^k M_k
        assert wd.phi_xx.coefficient(0) == 0
        for k, mk in enumerate(c.higher, start=1):
            assert wd.phi_xx.coefficient(k) == 2 * (-1) ** k * mk
        assert wd.phi_xx.degree == s.n
        # slope: 2 z (first_moment - total_mass * anchor) + O(z^2)
        assert wd.phi_x.coefficient(0) == 0
        assert wd.phi_x.coefficient(1) == 2 * (c.first_moment
                                               - c.total_mass * s.anchor)
        # value: 1 - z sum m_k (x_n - x_k)^2 + O(z^2)
        assert wd.phi.coefficient(0) == 1
        assert wd.phi.coefficient(1) == -sum(
            m * (xs[-1] - x) ** 2 for m, x in zip(s.masses, xs))


def test_automorphism_and_unit_determinant_random():
    rng = random.Random(22)
    for _ in range(12):
        s = random_string(rng, rng.randint(1, 6))
        check_automorphism(s)
        full = transition(s, 2 * s.n - 1)
        assert det_cofactor(full) == Polynomial.one()


def test_partial_product_degree_pattern():
    rng = random.Random(23)
    for _ in range(8):
        n = rng.randint(2, 6)
        s = random_string(rng, n)
        for k in range(1, n):
            a = transition(s, 2 * k + 1)
            expected = ((k, k - 1, k - 1),
                        (k, k - 1, k - 1),
                        (k + 1, k, k))
            got = tuple(tuple(p.degree for p in row) for row in a)
            assert got == expected, (n, k)


def test_partial_product_normalizations():
    rng = random.Random(24)
    for _ in range(8):
        n = rng.randint(1, 6)
        s = random_string(rng, n)
        for k in range(n):
            a = transition(s, 2 * k + 1)
            assert a[0][0].coefficient(0) == 1
            assert a[1][0].coefficient(0) == 0
            assert a[2][0].coefficient(0) == 0
            if k >= 1:
                # 1-indexed gaps l_{n-k}..l_{n-1} live at 0-based n-k-1..n-2
                assert a[0][1].coefficient(0) == sum(s.gaps[n - k - 1: n])
                assert a[1][1].coefficient(0) == 1
                assert a[2][1].coefficient(0) == 0
                assert a[2][2].coefficient(0) == 1


def test_third_row_coefficient_identities():
    """Low and leading coefficients of the bottom row of any partial
    product, against closed forms in the masses, gaps and positions."""
    rng = random.Random(25)
    for _ in range(8):
        n = rng.randint(2, 5)
        s = random_string(rng, n)
        xs = positions(s)
        m = s.masses
        for k in range(1, n):
            a = transition(s, 2 * k + 1)
            a31, a32, a33 = a[2]
            # linear coefficients (indices below are 1-based in the math)
            assert a31.coefficient(1) == -2 * sum(m[n - k - 1: n])
            assert a32.coefficient(1) == -2 * sum(
                m[i] * (xs[i] - xs[n - k - 1]) for i in range(n - k, n))
            assert a33.coefficient(1) == -sum(
                m[i] * (xs[i] - xs[n - k - 1]) ** 2 for i in range(n - k, n))
            # leading coefficients
            prod_full = F(1)
            for i in range(n - k, n):        # masses m_{n+1-k}..m_n, 0-based
                prod_full *= m[i] * s.gaps[i - 1] ** 2 / 2
            assert a33.leading == (-2) ** k * prod_full
            assert a31.leading == (-2) ** (k + 1) * m[n - k - 1] * prod_full
            prod_short = F(1)
            for i in range(n - k + 1, n):
                prod_short *= m[i] * s.gaps[i - 1] ** 2 / 2
            assert a32.leading == ((-2) ** k * prod_short
                                   * m[n - k] * s.gaps[n - k - 1])
            # the string data comes straight back from the leading terms
            assert -a31.leading / (2 * a33.leading) == m[n - k - 1]
            assert 2 * a33.leading / a32.leading == s.gaps[n - k - 1]


def test_spectrum_two_mass_exact():
    wd = spectrum(boundary_data(TWO_MASS))
    assert len(wd.eigenvalues) == 1
    assert wd.eigenvalues == (RatInterval.point(2),)


def test_spectrum_single_mass_empty():
    wd = spectrum(boundary_data(CubicString((F(5),), ())))
    assert wd.eigenvalues == ()


def test_residues_two_mass_exact():
    wd = residues(spectrum(boundary_data(TWO_MASS)))
    assert wd.w_residues == (RatInterval.point(F(-1)),)
    assert wd.z_residues == (RatInterval.point(F(-1, 4)),)


def test_residues_refuse_a_point_eigenvalue_at_a_double_root():
    # phi_xx = z (z - 1)^2: phi_xx' is 0 at the point eigenvalue 1, which
    # no refinement can mend
    wd = WeylData(P(1), P(1), P(0, 1, -2, 1),
                  eigenvalues=(RatInterval.point(1),))
    with pytest.raises(IdentityViolatedError, match="multiple eigenvalue"):
        residues(wd)


def test_residues_refine_a_tiny_residue_past_the_cap(monkeypatch):
    # the smallest w-residue of 12 masses of 1-digit ratios is about
    # 2^-75: with the cap at 64 bits, GUARD_BITS past it is too few to
    # round it at 64 bits, and its leading zeros more are enough
    monkeypatch.setattr(forward, "MAX_PRECISION_BITS", 64)
    s = string_from_dict(ratio_string(random.Random(12), 12, 1))
    wd = spectrum(boundary_data(s), 64)
    got = residues(wd, 64)
    assert min(-b.hi for b in got.w_residues) < F(1, 2 ** 70)
    assert min(e.width for e in got.eigenvalues) < F(1, 2 ** (64 + 16))
    assert (got.eigenvalues, got.w_residues, got.z_residues) == \
        residues_by_hull(wd, 64)


def test_residues_interval_case_certified():
    # masses (1,2), gap 1: one eigenvalue, the root of a linear
    # polynomial, so exact points; masses (1,2,1), gaps (1,1/2): two
    # irrational eigenvalues, so open boxes
    for s in (CubicString((F(1), F(2)), (F(1),)),
              CubicString((F(1), F(2), F(1)), (F(1), F(1, 2)))):
        wd = residues(spectrum(boundary_data(s)), precision_bits=64)
        for b in wd.w_residues + wd.z_residues:
            assert b.is_negative()
        for e, bw, bz in zip(wd.eigenvalues, wd.w_residues, wd.z_residues):
            assert (e.width == 0) == (bw.width == 0) == (bz.width == 0)
        assert all(e.width == 0 for e in wd.eigenvalues) == (s.n == 2)
        # the residue sum is the 1/z coefficient of phi_x/phi_xx at
        # infinity, which is the ratio of leading coefficients
        total = sum(float(b.lo) for b in wd.w_residues)
        expect = float(wd.phi_x.leading / wd.phi_xx.leading)
        assert abs(total - expect) < 1e-12


def test_residues_refine_an_eigenvalue_beside_a_rounding_boundary():
    # q has the root lam just past 1.5 + 5e-19, where 19 digits round
    # from ...000 up to ...001, and 4 - lam; phi_x = phi = -phi_xx', so
    # both residues are -1 and settle at once: the eigenvalue alone, about
    # 2^-133 from the boundary, sends the boxes from 80 bits through 96
    # and 128 to 192
    c = F(15000000000000000005, 10 ** 19)
    lam = c + F(1, 10 ** 40)
    # the 10^-90 makes the roots irrational
    q = Polynomial([lam * (4 - lam) + F(1, 10 ** 90), -4, 1])
    phi_xx = Polynomial([0, *q.coefficients]) * -1
    wd = WeylData(-phi_xx.derivative(), -phi_xx.derivative(), phi_xx)
    wd = residues(spectrum(wd, 64), 64)
    for box, want in zip(wd.eigenvalues, ("1.500000000000000001",
                                          "2.499999999999999999")):
        assert decimal_string(box.lo, 19) == decimal_string(box.hi, 19) == want
        assert F(1, 2 ** 192) >= box.width > F(1, 2 ** 193)
    assert all(b.lo <= -1 <= b.hi for b in wd.w_residues + wd.z_residues)


def test_spectrum_matches_float_oracle_random():
    rng = random.Random(26)
    for _ in range(10):
        s = random_string(rng, rng.randint(2, 6))
        wd = spectrum(boundary_data(s))
        lams = np.array([float(e.lo) for e in wd.eigenvalues])
        oracle = float_spectrum_oracle(s)
        assert np.allclose(lams, oracle, rtol=1e-9, atol=0)


def test_each_eigenvalue_is_tested_for_rationality_once_at_most(monkeypatch):
    # a rational root of the integer q is k/lead, and a box no wider than
    # 1/lead holds one such k: each box is tested once, when it is that
    # narrow.  At 1 bit the width comes first, and the bisection would go
    # on for the test, but random strings have no root mod some small
    # prime, which proves their spectrum irrational: no box is tested
    tests = []
    real = roots_module._rational_root

    def spy(*args):
        tests.append(args)
        return real(*args)

    monkeypatch.setattr(roots_module, "_rational_root", spy)
    rng = random.Random(4)
    for _ in range(10):
        s = random_string(rng, rng.randint(3, 10))
        for bits, count in ((256, s.n - 1), (1, 0)):
            tests.clear()
            wd = residues(spectrum(boundary_data(s), bits), bits)
            assert all(e.width > 0 for e in wd.eigenvalues)  # irrational
            assert len(tests) == count
    # a rational spectrum is found point by point, one test a root at
    # most, at any width
    for n in range(2, 9):
        for seed in range(3):
            sd = random_spectral(n, seed)
            data = boundary_data(recover(sd))
            for bits in (1, 64, 256):
                tests.clear()
                wd = spectrum(data, bits)
                assert wd.eigenvalues == tuple(RatInterval.point(lam)
                                               for lam in sd.eigenvalues)
                assert len(tests) <= n - 1


def test_oscillatory_matrices_frozen():
    stiff, gram = oscillatory_matrices(TWO_MASS)
    assert stiff.rows == ((F(2),),)
    assert gram.rows == ((F(1),),)
    s3 = CubicString((F(1), F(2), F(4)), (F(1), F(3)))
    stiff3, gram3 = oscillatory_matrices(s3)
    assert stiff3.rows == ((F(3, 2), F(-1, 2)), (F(-1, 2), F(3, 4)))
    assert gram3.rows == ((F(1), F(0)), (F(6), F(9)))
    with pytest.raises(ValueError, match="needs n >= 2"):
        oscillatory_matrices(CubicString((F(1),), ()))


def test_stiffness_determinant_identity():
    from cubicstring.exact import det_exact

    rng = random.Random(27)
    for _ in range(10):
        s = random_string(rng, rng.randint(2, 6))
        stiff, _ = oscillatory_matrices(s)
        prod = F(1)
        for m in s.masses:
            prod *= m
        assert det_exact(stiff) == sum(s.masses) / prod


def test_path_matrix_equals_gram():
    rng = random.Random(28)
    for _ in range(10):
        s = random_string(rng, rng.randint(2, 6))
        _, gram = oscillatory_matrices(s)
        assert path_matrix(s.n - 1, s.gaps).rows == gram.rows


def test_path_matrix_order_two_hand_count():
    # two routes from source 2 to sink 1: climb-then-exit and exit-diagonal
    pm = path_matrix(2, (F(3), F(5)))
    assert pm.rows == ((F(9), F(0)), (F(30), F(25)))


def test_gram_total_nonnegativity():
    rng = random.Random(29)
    for _ in range(8):
        s = random_string(rng, rng.randint(2, 6))
        _, gram = oscillatory_matrices(s)
        assert is_totally_nonnegative(gram)
    # a matrix with a negative 2x2 minor fails
    bad = Matrix([[F(1), F(2)], [F(3), F(1)]])
    assert not is_totally_nonnegative(bad)
    with pytest.raises(ValueError, match="capped at 6"):
        is_totally_nonnegative(Matrix([[F(int(i == j)) for j in range(7)]
                                       for i in range(7)]))
