import itertools

import pytest

from conftest import all_itemsets, random_db
from robustmine import (
    MinedItemset,
    MiningConfig,
    PredicateKind,
    complete_closed_family,
    evaluate_predicate,
    is_closed,
    mine_closed,
    mine_robust,
    resolve_min_support,
    robustness,
    support,
    top_k,
)

TOY_CLOSED = [((0,), 3), ((4,), 5), ((1, 3, 4), 4), ((0, 1, 2, 3, 4), 2)]


def test_resolve_min_support():
    assert resolve_min_support(2, 10) == 2
    assert resolve_min_support(2.0, 10) == 2
    assert resolve_min_support(0.5, 6) == 3
    assert resolve_min_support(0.75, 6) == 5
    with pytest.raises(ValueError):
        resolve_min_support(1.5, 10)
    with pytest.raises(ValueError):
        resolve_min_support(-1, 10)


def test_mine_free_toy(toy):
    out = mine_robust(toy, MiningConfig(PredicateKind.FREE, alpha=0.5))
    assert [m.items for m in out] == [
        (2,), (0,), (1,), (3,), (4,), (0, 4), (0, 1), (0, 3)]
    by_items = {m.items: m for m in out}
    assert by_items[(0, 4)].support == 2
    assert by_items[(0, 4)].robustness == pytest.approx(0.4375, abs=1e-12)
    assert by_items[(2,)].robustness == pytest.approx(0.9375, abs=1e-12)


def test_mine_include_empty(toy):
    out = mine_robust(toy, MiningConfig(PredicateKind.FREE, alpha=0.5,
                                        min_support=0, include_empty=True))
    assert out[0] == MinedItemset((), 6, 1.0)
    assert len(out) == 9


def test_mine_ts_with_threshold(toy):
    out = mine_robust(toy, MiningConfig(PredicateKind.TOTALLY_SHATTERED,
                                        alpha=1 / 3, rho=0.03))
    assert [m.items for m in out] == [
        (0,), (1,), (3,), (2,), (4,), (0, 1), (0, 3)]
    assert out[-1].robustness == pytest.approx(25 / 729, abs=1e-12)


def test_mine_high_rho(toy):
    out = mine_robust(toy, MiningConfig(PredicateKind.FREE, alpha=0.5, rho=0.9))
    assert [m.items for m in out] == [(2,)]


def test_mine_max_size_and_fractional_support(toy):
    out = mine_robust(toy, MiningConfig(PredicateKind.FREE, alpha=0.5, max_size=1))
    assert [m.items for m in out] == [(2,), (0,), (1,), (3,), (4,)]
    out = mine_robust(toy, MiningConfig(PredicateKind.FREE, alpha=0.5, min_support=0.5))
    assert [m.items for m in out] == [(0,), (1,), (3,), (4,)]


def test_mine_validation(toy):
    with pytest.raises(ValueError):
        mine_robust(toy, MiningConfig(PredicateKind.CLOSED, alpha=0.5))
    with pytest.raises(ValueError):
        mine_robust(toy, MiningConfig(PredicateKind.FREE, alpha=1.5))
    with pytest.raises(ValueError):
        mine_robust(toy, MiningConfig(PredicateKind.FREE, alpha=0.5, rho=-0.2))
    with pytest.raises(ValueError, match="max size must be >= 0"):
        mine_robust(toy, MiningConfig(PredicateKind.FREE, alpha=0.5, max_size=-1))
    with pytest.raises(ValueError, match="max size must be >= 0"):
        mine_robust(toy, MiningConfig(PredicateKind.NON_DERIVABLE, alpha=0.5, max_size=-1,
                                      include_empty=True))


def test_mine_matches_brute_force():
    for seed in (41, 42, 43):
        db = random_db(seed, 7, 4, 0.5)
        for kind in (PredicateKind.FREE, PredicateKind.NON_DERIVABLE,
                     PredicateKind.TOTALLY_SHATTERED):
            for alpha, rho, tau in [(0.3, 0.0, 1), (0.7, 0.25, 1), (0.5, 0.1, 2)]:
                got = {m.items for m in mine_robust(db, MiningConfig(
                    kind, alpha=alpha, rho=rho, min_support=tau))}
                want = {x for x in all_itemsets(db.n_items) if x
                        and support(db, x) >= tau
                        and evaluate_predicate(db, x, kind)
                        and robustness(db, x, kind, alpha) >= rho}
                assert got == want, (seed, kind, alpha, rho, tau)


def test_mine_closed_toy(toy):
    assert mine_closed(toy, 1) == TOY_CLOSED
    assert mine_closed(toy, 5) == [((4,), 5)]
    assert mine_closed(toy, 0.75) == [((4,), 5)]
    assert complete_closed_family(toy) == TOY_CLOSED
    with pytest.raises(ValueError):
        mine_closed(toy, 0)


def test_mine_closed_matches_brute_force():
    for seed in (44, 45, 46):
        db = random_db(seed, 8, 4, 0.5)
        for tau in (1, 2, 3):
            got = mine_closed(db, tau)
            want = [(x, support(db, x)) for x in all_itemsets(db.n_items)
                    if x and support(db, x) >= tau and is_closed(db, x)]
            assert sorted(got, key=lambda p: (len(p[0]), p[0])) == \
                sorted(want, key=lambda p: (len(p[0]), p[0]))
            assert got == sorted(got, key=lambda p: (len(p[0]), p[0]))


def test_top_k_closed(toy):
    out = top_k(toy, PredicateKind.CLOSED, 2)
    assert [(p.position, p.items) for p in out] == [
        (1, (0, 1, 2, 3, 4)), (2, (1, 3, 4))]
    out = top_k(toy, PredicateKind.CLOSED, 10)
    assert [p.items for p in out] == [(0, 1, 2, 3, 4), (1, 3, 4), (4,), (0,)]
    provided = top_k(toy, PredicateKind.CLOSED, 10, closed_family=TOY_CLOSED)
    assert [p.items for p in provided] == [p.items for p in out]


def test_top_k_free(toy):
    out = top_k(toy, PredicateKind.FREE, 100, min_support=0)
    assert [p.items for p in out] == [
        (), (2,), (0,), (1,), (3,), (4,), (0, 4), (0, 1), (0, 3)]
    assert [p.position for p in out] == list(range(1, 10))
    out = top_k(toy, PredicateKind.FREE, 3, include_empty=False)
    assert [p.items for p in out] == [(2,), (0,), (1,)]


def test_top_k_size_window(toy):
    out = top_k(toy, PredicateKind.FREE, 3, min_size=2, max_size=2)
    assert [p.items for p in out] == [(0, 4), (0, 1), (0, 3)]
    with pytest.raises(ValueError):
        top_k(toy, PredicateKind.FREE, 0)
    with pytest.raises(ValueError):
        top_k(toy, PredicateKind.FREE, 3, min_size=3, max_size=2)


def test_top_k_matches_family_rank():
    for seed in (47, 48):
        db = random_db(seed, 7, 4, 0.5)
        for kind in (PredicateKind.FREE, PredicateKind.NON_DERIVABLE,
                     PredicateKind.TOTALLY_SHATTERED):
            got = [p.items for p in top_k(db, kind, 1000)]
            family = {x for x in all_itemsets(db.n_items)
                      if evaluate_predicate(db, x, kind) and support(db, x) >= 1}
            assert set(got) == family, (seed, kind)
            assert len(got) == len(family)
