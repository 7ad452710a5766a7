"""Tuple-sum oracles against the pair-table minors."""

import json
import random
import time
from fractions import Fraction

import pytest

from cubicstring.heine import (
    DiscreteMeasure,
    cauchy_matrix,
    cauchy_tuple_sum,
    heine_sums,
    measure_table,
    run_checks,
    split_sum,
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
    assert split_sum(ONE_POINT, 1, False) == F(1, 4)
    assert split_sum(ONE_POINT, 1, True) == F(1)
    assert split_sum(ONE_POINT, 2, False) == 0  # multiplicity prune
    assert det_exact(cauchy_matrix(ONE_POINT)) == F(-1, 2)
    assert cauchy_tuple_sum(ONE_POINT) == F(-1, 2)


def test_split_sum_lists_no_halves_when_every_tuple_is_skipped():
    # one point repeats 2k times in its only tuple; building the
    # C(22, 11) = 705,432 halves regardless took about 0.3 s here
    start = time.perf_counter()
    assert split_sum(ONE_POINT, 11, True) == 0
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
    assert split_sum(TWO_POINT, 2, False) == F(1, 72)
    assert split_sum(TWO_POINT, 2, True) == F(1, 18)
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
