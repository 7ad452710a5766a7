"""Exact linear algebra: Bareiss determinant, leading, bordered, pair
and extra-row minors and solve, cross-checked against an independent
cofactor-expansion oracle and per-block determinants on random
matrices."""

import random
from fractions import Fraction as F

import pytest

from oracles import det_cofactor

from cubicstring.errors import NonSquareError, SingularMatrixError
from cubicstring.exact import Matrix, bordered_minors, det_exact, solve_exact


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


def leading_minors(m):
    """The leading minors of a square m: bordered_minors with no borders
    and no extra row."""
    minors, border, pair, top = bordered_minors(m, 0)
    assert border == ((),) * m.nrows
    assert pair == ((),) * max(m.nrows - 1, 0)
    assert top == ()
    return minors


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


def bordered_by_blocks(m, borders, extra=None):
    """Leading minors, border minors, pair minors and extra-row minors of
    an n x (n + borders) matrix, one det_exact per block."""
    n, rows = m.nrows, m.rows

    def det(block):
        return det_exact(Matrix(block))

    minors = tuple(det([r[:k] for r in rows[:k]]) for k in range(n + 1))
    border = tuple(tuple(det([r[:k] + (r[n + c],) for r in rows[:k + 1]])
                         for c in range(borders))
                   for k in range(n))
    pair = tuple(tuple(det([r[:k] + (r[n + c], r[n + d])
                            for r in rows[:k + 2]])
                       for c in range(borders) for d in range(c + 1, borders))
                 for k in range(n - 1))
    top = () if extra is None else tuple(
        det([r[:k + 1] for r in rows[:k]] + [extra[:k + 1]])
        for k in range(n))
    return minors, border, pair, top


def random_row(rng, width, scale=9):
    return [F(rng.randint(-scale, scale), rng.randint(1, 4))
            for _ in range(width)]


def test_border_minors_match_determinants_of_bordered_blocks():
    rng = random.Random(17)
    for n in (1, 2, 3, 5, 8):
        for borders in (1, 2, 3):
            for _ in range(5):
                m = Matrix([random_row(rng, n + borders) for _ in range(n)])
                assert bordered_minors(m, borders) == \
                    bordered_by_blocks(m, borders)
                extra = random_row(rng, n)
                assert bordered_minors(m, borders, extra) == \
                    bordered_by_blocks(m, borders, extra)


def test_pair_and_extra_row_minors_worked_value():
    # rows (1, 2, 3, 4) and (5, 6, 7, 8): the pair minor of the borders
    # 3 and 4 is 3 8 - 4 7 = -4; the extra row (1, 1) gives det (1) = 1
    # and det [[1, 2], [1, 1]] = -1
    m = Matrix([[F(1), F(2), F(3), F(4)], [F(5), F(6), F(7), F(8)]])
    minors, border, pair, top = bordered_minors(m, 2, (F(1), F(1)))
    assert minors == (1, 1, -4)
    assert border == ((3, 4), (-8, -12))
    assert pair == ((-4,),)
    assert top == (1, -1)


def test_border_minors_go_on_past_a_zero_pivot():
    # the leading 2 x 2 block is singular, so elimination stops at its
    # pivot; the third row's minors come from their own blocks
    m = Matrix([[F(1), F(2), F(3), F(1), F(0)],
                [F(2), F(4), F(1), F(2), F(1, 2)],
                [F(3), F(5), F(7), F(-1), F(2)]])
    extra = (F(2), F(1), F(-3))
    minors, border, pair, top = bordered_minors(m, 2, extra)
    assert minors[2] == 0 and minors[3] != 0
    assert border[2] != (0, 0)
    assert pair[1] != (0,) and top[2] != 0
    assert (minors, border, pair, top) == bordered_by_blocks(m, 2, extra)
    # random singular leading blocks: a zero first pivot (size 1), and
    # a repeated start of the first row (size 2) or of the first two
    # rows' combination (size 3)
    rng = random.Random(19)
    for size in (1, 2, 3):
        for n in range(size, 6):
            for borders in (2, 3):
                for _ in range(4):
                    rows = [random_row(rng, n + borders, 4)
                            for _ in range(n)]
                    if size == 1:
                        rows[0][0] = F(0)
                    elif size == 2:
                        rows[1][:2] = rows[0][:2]
                    else:
                        rows[2][:3] = [a - b for a, b in
                                       zip(rows[0][:3], rows[1][:3])]
                    m = Matrix(rows)
                    extra = random_row(rng, n, 4)
                    got = bordered_minors(m, borders, extra)
                    assert got[0][size] == 0
                    assert got == bordered_by_blocks(m, borders, extra)


def test_leading_minors_of_the_empty_matrix():
    assert leading_minors(Matrix(())) == (F(1),)
    assert bordered_minors(Matrix(()), 2) == ((F(1),), (), (), ())
    assert bordered_minors(Matrix(()), 2, ()) == ((F(1),), (), (), ())


def test_leading_minors_non_square_rejected():
    with pytest.raises(NonSquareError):
        leading_minors(Matrix([[F(1), F(2)]]))
    with pytest.raises(NonSquareError):
        bordered_minors(Matrix([[F(1), F(2)]]), 2)
    with pytest.raises(ValueError):
        bordered_minors(Matrix([[F(1), F(2)]]), 1, (F(1), F(2)))
