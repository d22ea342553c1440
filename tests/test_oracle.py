import math
from itertools import product

import pytest

from conftest import random_db
from robustmine import (
    CapacityError,
    PredicateKind,
    breakdown_vector,
    evaluate_predicate,
    exhaustive_robustness,
    monte_carlo_robustness,
    robustness,
)


def test_exhaustive_toy_values(toy):
    assert exhaustive_robustness(toy, (0, 1), PredicateKind.TOTALLY_SHATTERED, 1 / 3) == \
        pytest.approx(25 / 729, abs=1e-12)
    assert exhaustive_robustness(toy, (0, 4), PredicateKind.FREE, 0.5) == \
        pytest.approx(0.4375, abs=1e-12)
    assert exhaustive_robustness(toy, (0, 2), PredicateKind.NON_DERIVABLE, 0.5) == \
        pytest.approx(0.65625, abs=1e-12)


def test_exhaustive_extremes(toy):
    for items in [(), (0,), (0, 1)]:
        for kind in PredicateKind:
            assert exhaustive_robustness(toy, items, kind, 1.0) == \
                float(evaluate_predicate(toy, items, kind))
            assert exhaustive_robustness(toy, items, kind, 0.0) == \
                float(evaluate_predicate(toy.subset([]), items, kind))


def test_exhaustive_guard():
    db = random_db(5, 25, 3, 0.5)
    with pytest.raises(CapacityError):
        exhaustive_robustness(db, (0,), PredicateKind.FREE, 0.5)


def test_breakdown_toy(toy):
    got = breakdown_vector(toy, (1, 3, 4), PredicateKind.CLOSED)
    assert got == (0, 0, 1, 4, 6, 4, 1)
    # c_0 mirrors the predicate on the full data
    assert breakdown_vector(toy, (0, 2), PredicateKind.TOTALLY_SHATTERED)[0] == 1
    assert breakdown_vector(toy, (0, 1), PredicateKind.TOTALLY_SHATTERED)[0] == 0


def test_breakdown_reconstructs_failure_probability(toy):
    n = len(toy)
    for items, kind in [((1, 3, 4), PredicateKind.CLOSED), ((0, 1), PredicateKind.FREE),
                        ((0, 3), PredicateKind.TOTALLY_SHATTERED)]:
        c = breakdown_vector(toy, items, kind)
        for alpha in (0.2, 0.5, 0.8):
            beta = 1 - alpha
            fail = sum(c[k] * beta ** k * alpha ** (n - k) for k in range(n + 1))
            assert fail == pytest.approx(1 - exhaustive_robustness(toy, items, kind, alpha),
                                         abs=1e-12)


def test_breakdown_totals(toy):
    n = len(toy)
    c = breakdown_vector(toy, (0, 2), PredicateKind.TOTALLY_SHATTERED)
    # a predicate that already fails on the full data fails on every subset
    assert sum(c) == 2 ** n


def test_monte_carlo_brackets_truth(toy):
    est, stderr = monte_carlo_robustness(toy, (0, 1), PredicateKind.TOTALLY_SHATTERED,
                                         1 / 3, 200000, seed=42)
    assert stderr > 0
    assert abs(est - 25 / 729) <= 4 * stderr


def test_monte_carlo_is_deterministic(toy):
    a = monte_carlo_robustness(toy, (0, 1), PredicateKind.FREE, 0.6, 5000, seed=7)
    b = monte_carlo_robustness(toy, (0, 1), PredicateKind.FREE, 0.6, 5000, seed=7)
    assert a == b
    c = monte_carlo_robustness(toy, (0, 1), PredicateKind.FREE, 0.6, 5000, seed=8)
    assert a != c


def test_monte_carlo_degenerate_alphas(toy):
    est, stderr = monte_carlo_robustness(toy, (0, 1), PredicateKind.FREE, 1.0, 50, seed=1)
    assert (est, stderr) == (1.0, 0.0)
    est, stderr = monte_carlo_robustness(toy, (0, 1), PredicateKind.FREE, 0.0, 50, seed=1)
    assert (est, stderr) == (0.0, 0.0)
    with pytest.raises(ValueError):
        monte_carlo_robustness(toy, (0,), PredicateKind.FREE, 0.5, 0, seed=1)


def test_exhaustive_agrees_with_closed_forms():
    for seed in (31, 32):
        db = random_db(seed, 8, 4, 0.5)
        for items in [(0,), (1, 2), (0, 3)]:
            for alpha, kind in product((0.3, 0.6), (PredicateKind.FREE,
                                                    PredicateKind.TOTALLY_SHATTERED)):
                assert exhaustive_robustness(db, items, kind, alpha) == \
                    pytest.approx(robustness(db, items, kind, alpha), abs=1e-9)
