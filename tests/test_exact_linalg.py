"""Exact linear algebra: Bareiss determinant, leading minors and solve,
cross-checked against an independent cofactor-expansion oracle on
random matrices."""

import random
from fractions import Fraction as F

import pytest

from oracles import det_cofactor

from cubicstring.errors import NonSquareError, SingularMatrixError
from cubicstring.exact import Matrix, det_exact, leading_minors, solve_exact


def random_matrix(rng, n, scale=9):
    return Matrix([[F(rng.randint(-scale, scale), rng.randint(1, 4))
                    for _ in range(n)] for _ in range(n)])


def test_det_2x2_worked_value():
    # the 2x2 moment system that appears in the smallest two-mass example
    m = Matrix([[F(1, 2), F(1, 2)], [F(1, 2), F(1)]])
    # oracle: ad - bc computed by hand
    oracle = F(1, 2) * F(1) - F(1, 2) * F(1, 2)
    assert oracle == F(1, 4)
    assert det_exact(m) == F(1, 4)
    assert det_cofactor(m.rows) == F(1, 4)


def test_solve_2x2_worked_value():
    m = Matrix([[F(1, 2), F(1, 2)], [F(1, 2), F(1)]])
    x = solve_exact(m, (F(-1), F(0)))
    assert x == (F(-4), F(2))
    assert m.apply(x) == (F(-1), F(0))


def test_det_matches_cofactor_oracle_randomized():
    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        for _ in range(25):
            m = random_matrix(rng, n)
            assert det_exact(m) == det_cofactor(m.rows)


def test_solve_randomized_back_substitution():
    rng = random.Random(11)
    trials = 0
    while trials < 40:
        n = rng.randint(1, 5)
        m = random_matrix(rng, n)
        if det_exact(m) == 0:
            continue
        rhs = tuple(F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n))
        x = solve_exact(m, rhs)
        assert m.apply(x) == rhs
        trials += 1


def test_singular_matrix_raises():
    m = Matrix([[F(1), F(2)], [F(2), F(4)]])
    assert det_exact(m) == 0
    with pytest.raises(SingularMatrixError):
        solve_exact(m, (F(1), F(0)))


def test_zero_pivot_needs_row_swap():
    m = Matrix([[F(0), F(1)], [F(1), F(0)]])
    assert det_exact(m) == F(-1)
    assert solve_exact(m, (F(3), F(5))) == (F(5), F(3))


def test_non_square_rejected():
    m = Matrix([[F(1), F(2)]])
    with pytest.raises(NonSquareError):
        det_exact(m)
    with pytest.raises(NonSquareError):
        solve_exact(m, (F(1),))


def test_empty_determinant_is_one():
    assert det_exact(Matrix(())) == 1
    assert det_cofactor(()) == 1



def test_leading_minors_go_on_past_a_zero_pivot():
    m = Matrix([[F(0), F(1)], [F(1), F(0)]])
    assert leading_minors(m) == (F(1), F(0), F(-1))
    m = Matrix([[F(1), F(1), F(0)], [F(1), F(1), F(1)], [F(0), F(1), F(1)]])
    assert leading_minors(m) == (F(1), F(1), F(0), F(-1))


def test_leading_minors_match_determinants_of_leading_blocks():
    rng = random.Random(13)
    for n in (1, 2, 3, 5, 8):
        for _ in range(10):
            m = random_matrix(rng, n)
            minors = leading_minors(m)
            assert len(minors) == n + 1
            assert minors[-1] == det_exact(m)
            assert minors == tuple(
                det_exact(Matrix([r[:k] for r in m.rows[:k]]))
                for k in range(n + 1))


def test_leading_minors_of_the_empty_matrix():
    assert leading_minors(Matrix(())) == (F(1),)


def test_leading_minors_non_square_rejected():
    with pytest.raises(NonSquareError):
        leading_minors(Matrix([[F(1), F(2)]]))
