import pytest

from conftest import random_db
from robustmine import (
    MiningConfig,
    PredicateKind,
    compliance,
    mine_robust,
    noise_mix,
    parameter_free_order,
    rank_distance,
    robustness_bucket_order,
    sweep,
    top_k,
)


def test_sweep_matches_pointwise_mining(toy):
    alphas = (0.2, 0.5, 0.8)
    rhos = (0.0, 0.3, 0.7)
    res = sweep(toy, PredicateKind.FREE, alphas, rhos)
    assert res.alphas == alphas and res.rhos == rhos
    for a, r, count in res.rows():
        direct = mine_robust(toy, MiningConfig(PredicateKind.FREE, alpha=a, rho=r))
        assert count == len(direct), (a, r)


def test_sweep_grid_monotonicity(toy):
    alphas = tuple(i / 10 for i in range(1, 10))
    rhos = (0.0, 0.25, 0.5, 0.75)
    for kind in (PredicateKind.FREE, PredicateKind.TOTALLY_SHATTERED,
                 PredicateKind.NON_DERIVABLE):
        res = sweep(toy, kind, alphas, rhos)
        for a in alphas:
            col = [res.counts[(a, r)] for r in rhos]
            assert col == sorted(col, reverse=True), (kind, a)
        for r in rhos:
            row = [res.counts[(a, r)] for a in alphas]
            assert row == sorted(row), (kind, r)


def test_sweep_validation(toy):
    with pytest.raises(ValueError):
        sweep(toy, PredicateKind.FREE, (0.5, 1.2), (0.0,))
    with pytest.raises(ValueError):
        sweep(toy, PredicateKind.FREE, (0.5,), (-0.1,))
    with pytest.raises(ValueError, match="closedness is not downward closed"):
        sweep(toy, PredicateKind.CLOSED, (0.5,), (0.0,))


def test_noise_mix_identity_and_determinism(toy):
    assert noise_mix(toy, 0.0, seed=5) == toy
    a = noise_mix(toy, 0.4, seed=5)
    b = noise_mix(toy, 0.4, seed=5)
    assert a == b
    assert a.tids == toy.tids and a.n_items == toy.n_items and len(a) == len(toy)
    c = noise_mix(toy, 0.4, seed=6)
    assert c != a
    with pytest.raises(ValueError):
        noise_mix(toy, 1.0001, seed=1)


def test_noise_mix_empty_db():
    from robustmine import TransactionDatabase

    empty = TransactionDatabase([], n_items=3)
    assert noise_mix(empty, 0.7, seed=1) == empty


def test_compliance():
    assert compliance([(0,), (1,)], [(0,), (1,)]) == [1.0, 1.0]
    assert compliance([(0,), (1,)], [(1,), (0,)]) == [0.5, 0.5]
    assert compliance([(0,), (1,)], [(1,)]) == [0.0, 0.5]
    assert compliance([(0,), (1,), (2,)], [(2,), (0,), (1,)]) == [0.5, 0.5, 1 / 3]


def test_rank_distance_basics():
    flat = [(0,), (1,), (2,)]
    assert rank_distance(flat, flat) == 0.0
    assert rank_distance(flat, list(reversed(flat))) == 100.0
    # a tie in the first ranking removes that pair from the budget
    tied = [[(0,), (1,)], [(2,)]]
    assert rank_distance(tied, flat) == 0.0
    assert rank_distance(tied, [(2,), (1,), (0,)]) == 100.0
    assert rank_distance(flat, [(1,), (0,), (2,)]) == pytest.approx(100 / 3)


def test_rank_distance_validation():
    with pytest.raises(ValueError):
        rank_distance([[(0,), (1,)]], [(0,), (1,)])  # all pairs tied
    with pytest.raises(ValueError):
        rank_distance([(0,), (1,)], [(0,)])  # different universes
    with pytest.raises(ValueError):
        rank_distance([(0,), (0,)], [(0,), (1,)])  # repeats


def test_bucket_order_groups_equal_scores(toy):
    members = [(0, 1), (0, 3), (0, 4)]
    buckets = robustness_bucket_order(toy, members, PredicateKind.FREE, 0.5)
    assert buckets == [[(0, 4)], [(0, 1), (0, 3)]]


def test_parameter_free_order_matches_rank(toy):
    members = [p.items for p in top_k(toy, PredicateKind.FREE, 100, min_support=0)]
    assert parameter_free_order(toy, members, PredicateKind.FREE) == members


def test_alpha_order_converges_to_parameter_free_order():
    # near alpha = 1 the numeric ranking collapses onto the parameter-free one
    for seed in (61, 62, 63):
        db = random_db(seed, 9, 5, 0.5)
        members = [p.items for p in top_k(db, PredicateKind.FREE, 1000)]
        if len(members) < 4:
            continue
        flat = parameter_free_order(db, members, PredicateKind.FREE)
        buckets = robustness_bucket_order(db, members, PredicateKind.FREE, 0.95)
        assert rank_distance(buckets, flat) == 0.0
