import itertools
import os
import subprocess
import sys

import pytest

from conftest import all_itemsets, random_db
from robustmine import (
    PredicateKind,
    TransactionDatabase,
    evaluate_predicate,
    exhaustive_robustness,
    mine_closed,
    robustness,
    score,
    survival_probability,
)

TOY_CLOSED = [((0,), 3), ((4,), 5), ((1, 3, 4), 4), ((0, 1, 2, 3, 4), 2)]


def test_survival_probability_values():
    assert survival_probability([1, 1, 2, 2], 1 / 3) == pytest.approx(25 / 729, abs=1e-15)
    assert survival_probability([], 0.3) == 1.0
    # an already-empty cell can never be refilled, not even at alpha = 1
    assert survival_probability([0], 1.0) == 0.0
    assert survival_probability([3, 0, 2], 0.7) == 0.0
    assert survival_probability([5], 1.0) == 1.0
    assert survival_probability([5], 0.0) == 0.0
    with pytest.raises(ValueError):
        survival_probability([2], 1.2)
    with pytest.raises(ValueError):
        survival_probability([-1], 0.5)


def test_free_robustness_toy(toy):
    assert robustness(toy, (0, 4), PredicateKind.FREE, 0.5) == pytest.approx(0.4375, abs=1e-15)
    assert robustness(toy, (0, 1), PredicateKind.FREE, 0.5) == pytest.approx(0.375, abs=1e-15)
    assert robustness(toy, (), PredicateKind.FREE, 0.5) == 1.0
    assert robustness(toy, (2,), PredicateKind.FREE, 0.5) == pytest.approx(0.9375, abs=1e-15)
    assert robustness(toy, (0, 2), PredicateKind.FREE, 0.9) == 0.0


def test_ts_robustness_toy(toy):
    ts = PredicateKind.TOTALLY_SHATTERED
    assert robustness(toy, (0, 1), ts, 1 / 3) == pytest.approx(25 / 729, abs=1e-15)
    assert robustness(toy, (), ts, 0.5) == pytest.approx(0.984375, abs=1e-15)
    assert robustness(toy, (0, 2), ts, 1.0) == 0.0


def test_nd_robustness_toy(toy):
    ndi = PredicateKind.NON_DERIVABLE
    assert robustness(toy, (0, 2), ndi, 0.5) == pytest.approx(0.65625, abs=1e-15)
    assert robustness(toy, (), ndi, 0.37) == 1.0
    # derivable at alpha = 1 means robustness 0 there
    assert robustness(toy, (0, 1, 2), ndi, 1.0) == 0.0


def test_closed_robustness_toy(toy):
    def closed(items, alpha):
        return robustness(toy, items, PredicateKind.CLOSED, alpha, closed_family=TOY_CLOSED)

    for alpha in (0.1, 0.5, 0.9):
        beta = 1 - alpha
        assert closed((1, 3, 4), alpha) == pytest.approx(1 - beta ** 2, abs=1e-12)
    assert closed((0, 1, 2, 3, 4), 0.42) == 1.0
    assert closed((4,), 0.5) == pytest.approx(0.5, abs=1e-12)
    assert closed((1, 3, 4), 0.0) == 0.0


def test_closed_robustness_for_non_closed_itemsets(toy):
    # the inclusion-exclusion grouping stays valid for arbitrary query itemsets
    for items in [(1, 3), (0, 2), (2,), (0, 1), ()]:
        for alpha in (0.3, 0.7):
            direct = robustness(toy, items, PredicateKind.CLOSED, alpha, closed_family=TOY_CLOSED)
            brute = exhaustive_robustness(toy, items, PredicateKind.CLOSED, alpha)
            assert direct == pytest.approx(brute, abs=1e-12), (items, alpha)


def test_empty_itemset_closed_with_full_column():
    db = TransactionDatabase([[0], [0, 1]])
    fam = mine_closed(db, 1)
    # a full column keeps the empty itemset non-closed in every subsample
    assert robustness(db, (), PredicateKind.CLOSED, 0.6, closed_family=fam) == 0.0


def test_dispatcher(toy):
    for items in [(0,), (0, 1)]:
        for alpha in (0.2, 0.8):
            for kind in (PredicateKind.FREE, PredicateKind.NON_DERIVABLE,
                         PredicateKind.TOTALLY_SHATTERED):
                assert robustness(toy, items, kind, alpha) == score(toy, items, kind).value(alpha)
            assert robustness(toy, items, PredicateKind.CLOSED, alpha, closed_family=TOY_CLOSED) == \
                score(toy, items, PredicateKind.CLOSED, TOY_CLOSED).value(alpha) == \
                robustness(toy, items, PredicateKind.CLOSED, alpha)  # X's own closed supersets
    with pytest.raises(ValueError):
        robustness(toy, (5,), PredicateKind.CLOSED, 0.5)


def test_alpha_range_is_validated(toy):
    for bad in (-0.1, 1.0001):
        with pytest.raises(ValueError):
            robustness(toy, (0,), PredicateKind.FREE, bad)
        with pytest.raises(ValueError):
            robustness(toy, (0,), PredicateKind.NON_DERIVABLE, bad)


def test_extremes_match_predicate(toy):
    fam = TOY_CLOSED
    for items in all_itemsets(5, 3):
        for kind in PredicateKind:
            r1 = robustness(toy, items, kind, 1.0, closed_family=fam)
            assert r1 == float(evaluate_predicate(toy, items, kind)), (items, kind)
            r0 = robustness(toy, items, kind, 0.0, closed_family=fam)
            empty = toy.subset([])
            assert r0 == float(evaluate_predicate(empty, items, kind)), (items, kind)


def test_monotone_in_alpha(toy):
    grid = [i / 10 for i in range(11)]
    fam = TOY_CLOSED
    for items in all_itemsets(5, 3):
        for kind in PredicateKind:
            vals = [robustness(toy, items, kind, a, closed_family=fam) for a in grid]
            assert all(0.0 <= v <= 1.0 for v in vals)
            for lo, hi in zip(vals, vals[1:]):
                assert hi >= lo - 1e-12, (items, kind, vals)


def test_matches_exhaustive_on_random_data():
    # a light version of the main oracle comparison, for fast feedback
    for seed in (11, 12, 13):
        db = random_db(seed, 7, 4, 0.5)
        fam = mine_closed(db, 1)
        for items in all_itemsets(4, 3):
            for kind in PredicateKind:
                for alpha in (0.25, 0.75):
                    analytic = robustness(db, items, kind, alpha, closed_family=fam)
                    brute = exhaustive_robustness(db, items, kind, alpha)
                    assert analytic == pytest.approx(brute, abs=1e-9), (seed, items, kind, alpha)


def test_range_check_survives_python_O():
    # the [0, 1] invariant is an explicit check, not an assert that -O strips
    import robustmine

    src = os.path.dirname(os.path.dirname(robustmine.__file__))
    code = ("from robustmine.ordering import _checked\n"
            "try:\n    _checked(1.5)\nexcept ArithmeticError as e:\n    print(e)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "robustness 1.5 outside [0, 1]"
