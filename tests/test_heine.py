"""Tuple-sum oracles against the pair-table minors."""

import functools
import itertools
import json
import random
import time
from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest

from cubicstring import heine
from cubicstring.heine import (
    DiscreteMeasure,
    cauchy_matrix,
    cauchy_tuple_sum,
    heine_sums,
    measure_table,
    run_checks,
    split_sums,
    summand_count,
)
from cubicstring.exact import det_exact
from cubicstring.inverse import (
    SpectralData,
    bimoments,
    moment_minors,
)

F = Fraction

ONE_POINT = DiscreteMeasure((F(2),), (F(-1),))
TWO_POINT = DiscreteMeasure((F(1), F(2)), (F(-1), F(-1)))


def test_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure((F(2), F(1)), (F(-1), F(-1)))
    with pytest.raises(ValueError):
        DiscreteMeasure((F(0),), (F(-1),))
    with pytest.raises(ValueError):
        DiscreteMeasure((F(1),), (F(0),))
    with pytest.raises(ValueError):
        DiscreteMeasure((F(1), F(2)), (F(-1),))


def test_one_point_sums_frozen():
    u, v, t = heine_sums(ONE_POINT, 2)
    assert u == (F(1), F(-1), F(0))
    assert v == (F(1), F(-2), F(0))
    assert t == (F(1), F(-1, 2), F(0))
    assert split_sums(ONE_POINT, 2) == ((F(1), F(1, 4), F(0)),
                                        (F(1), F(1), F(0)))  # no 2-subset
    assert det_exact(cauchy_matrix(ONE_POINT)) == F(-1, 2)
    assert cauchy_tuple_sum(ONE_POINT) == F(-1, 2)


def test_split_sum_lists_no_halves_when_every_tuple_is_skipped():
    # one point has no k-subset past k = 1, so no pair to sum up to
    # k = 11, where C(22, 11) = 705,432 splits of the slots exist
    start = time.perf_counter()
    assert split_sums(ONE_POINT, 11)[1][11] == 0
    assert time.perf_counter() - start < 0.1


def test_two_point_sums_frozen():
    u, v, t = heine_sums(TWO_POINT, 3)
    assert u == (F(1), F(-2), F(1, 3), F(0))
    assert v == (F(1), F(-3), F(2, 3), F(0))
    assert t == (F(1), F(-3, 2), F(1, 6), F(0))
    mm = moment_minors(measure_table(TWO_POINT, 2))
    assert mm.shifted[1] == F(2)
    assert mm.shifted[2] == F(1, 36)
    assert mm.beta_shifted[1] == F(-2)
    assert mm.beta_shifted[2] == F(-1, 3)
    assert mm.beta_inner[2] == F(-1, 2)
    assert mm.corner[1] == F(17, 12)
    assert mm.corner[2] == F(1, 72)
    assert mm.inner[1] == F(17, 6)
    assert mm.inner[2] == F(1, 18)
    corner, inner = split_sums(TWO_POINT, 2)
    assert (corner[2], inner[2]) == (F(1, 72), F(1, 18))
    assert det_exact(cauchy_matrix(TWO_POINT)) == F(1, 36)
    assert cauchy_tuple_sum(TWO_POINT) == F(1, 36)


def test_run_checks_two_point_all_pass():
    report = run_checks(TWO_POINT, 3)
    assert report.all_pass
    names = {r.name for r in report.rows}
    assert "corner_vanishes" in names       # k = 3 exceeds the support
    assert "u_sign_alternates" in names     # all weights negative
    json.dumps(report.to_dict())


def _random_measure(rng, size, negative=True):
    pts = []
    cur = F(0)
    for _ in range(size):
        cur += F(rng.randint(1, 6), rng.randint(1, 3))
        pts.append(cur)
    ws = []
    for _ in range(size):
        w = F(rng.randint(1, 5), rng.randint(1, 3))
        ws.append(-w if negative or rng.random() < 0.5 else w)
    return DiscreteMeasure(tuple(pts), tuple(ws))


def test_run_checks_random_negative_weights():
    rng = random.Random(31)
    for size in (1, 2, 3):
        assert run_checks(_random_measure(rng, size), k_max=3).all_pass


def test_identities_hold_for_mixed_sign_weights():
    # the factorizations are algebraic identities in the weights; only
    # the sign rows and nonvanishing claims need negativity
    rng = random.Random(32)
    for size in (2, 3):
        mu = _random_measure(rng, size, negative=False)
        report = run_checks(mu, k_max=2)
        for row in report.rows:
            if row.name != "cauchy_nonzero":
                assert row.passed, row


def _ordered_sum(mu, n, term):
    """(1/n!) sum over ordered n-tuples of support indices, repeats
    included, of term(points) * prod(weights)."""
    total = sum((term([mu.points[i] for i in idx])
                 * prod((mu.weights[i] for i in idx), start=F(1))
                 for idx in itertools.product(range(mu.size), repeat=n)),
                F(0))
    return total / factorial(n)


def _vd(xs):
    return prod((xs[j] - xs[i]
                 for i, j in itertools.combinations(range(len(xs)), 2)),
                start=F(1))


def _gm(xs):
    return prod((xs[i] + xs[j]
                 for i, j in itertools.combinations(range(len(xs)), 2)),
                start=F(1))


def _split_reference(mu, k):
    """(corner, inner) at k: (1/(2k)!) times the literal sums over
    ordered 2k-tuples of support indices, repeats included, of the
    bracket over the C(2k, k) splits of the slots into halves, times
    prod w (and prod x for inner)."""
    @functools.cache
    def half(idx):  # vand^2 gamma of the points at these indices
        xs = [mu.points[i] for i in idx]
        return _vd(xs) ** 2 * _gm(xs)

    splits = [(h, tuple(j for j in range(2 * k) if j not in h))
              for h in itertools.combinations(range(2 * k), k)]
    corner = inner = F(0)
    for idx in itertools.product(range(mu.size), repeat=2 * k):
        bracket = F(0)
        for h, rest in splits:
            a = half(tuple(idx[j] for j in h))
            if a:
                bracket += a * half(tuple(idx[j] for j in rest))
        if bracket:
            xs = [mu.points[i] for i in idx]
            term = bracket / _gm(xs) * prod(
                (mu.weights[i] for i in idx), start=F(1))
            corner += term
            inner += term * prod(xs, start=F(1))
    return corner / factorial(2 * k), inner / factorial(2 * k)


def test_unordered_sums_match_the_ordered_tuple_sums():
    # subsets, pairs of subsets and the one Cauchy term against the
    # literal sums over ordered tuples, up to k = size + 1, where no
    # k-subset and so no pair of them exists
    rng = random.Random(34)
    for size in (1, 2, 3):
        ws = _random_measure(rng, size).weights
        mu = DiscreteMeasure(_random_measure(rng, size).points,
                             tuple(-w if i % 2 else w
                                   for i, w in enumerate(ws)))
        u, v, t = heine_sums(mu, size + 1)
        corner, inner = split_sums(mu, size + 1)
        for k in range(size + 2):
            assert u[k] == _ordered_sum(mu, k, lambda x: _vd(x) ** 2 / _gm(x))
            assert v[k] == _ordered_sum(
                mu, k, lambda x: _vd(x) ** 2 / _gm(x) * prod(x, start=F(1)))
            assert t[k] == _ordered_sum(
                mu, k, lambda x: _vd(x) ** 2 / _gm(x) / prod(x, start=F(1)))
            assert (corner[k], inner[k]) == _split_reference(mu, k)
        y = mu.points
        cauchy = _ordered_sum(mu, size, lambda x: prod(x, start=F(1))
                              * _vd(x) ** 2
                              / prod((a + b for a in x for b in y),
                                     start=F(1)))
        assert cauchy_tuple_sum(mu) == _vd(y) * cauchy


@pytest.mark.parametrize("support", range(1, 9))
@pytest.mark.parametrize("k_max", range(1, 6))
def test_summand_count_is_the_terms_run_checks_sums(monkeypatch, support,
                                                    k_max):
    # one gamma per subset of the basic sums, one cross product per pair
    # of the split sums, and the s^3 terms and one term of the Cauchy form
    seen = Counter()
    for name in ("_gamma", "_cross"):
        real = getattr(heine, name)
        monkeypatch.setattr(heine, name, lambda *a, name=name, real=real:
                            seen.update([name]) or real(*a))
    run_checks(heine.random_measure(support, 0), k_max)
    assert summand_count(support, k_max) == (
        seen["_gamma"] + seen["_cross"] + support ** 3 + 1)


def test_measure_table_matches_spectral_route():
    sd = SpectralData((F(2),), (F(-1),), F(2))
    bt_spec = bimoments(sd, 1)
    bt_meas = measure_table(DiscreteMeasure(sd.eigenvalues, sd.residues), 1)
    assert bt_meas.moments == bt_spec.moments
    assert bt_meas.pair_table == bt_spec.pair_table
    assert moment_minors(bt_meas).shifted == moment_minors(bt_spec).shifted


def test_four_point_support_at_depth():
    # the largest shape the acceptance gate exercises
    rng = random.Random(33)
    mu = _random_measure(rng, 4)
    assert run_checks(mu, k_max=4).all_pass


@pytest.mark.parametrize("support", range(1, 9))
def test_heine_forms_at_support_up_to_eight(support):
    # the minors against the tuple sums where the minors are nontrivial;
    # support 8 at k_max 2 sums 1,453 terms (heine.summand_count)
    rng = random.Random(40 + support)
    for _ in range(3):
        assert run_checks(_random_measure(rng, support), k_max=2).all_pass
