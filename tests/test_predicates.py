import itertools

import pytest

from conftest import all_itemsets, random_db, small_corpus
from robustmine import (
    PredicateKind,
    TransactionDatabase,
    derivability_bounds,
    evaluate_predicate,
    is_closed,
    is_free,
    is_non_derivable,
    is_totally_shattered,
    support,
)
from robustmine.predicates import survival_classes


def test_kind_parse():
    assert PredicateKind.parse("ndi") is PredicateKind.NON_DERIVABLE
    assert PredicateKind.parse(" TS ") is PredicateKind.TOTALLY_SHATTERED
    with pytest.raises(ValueError):
        PredicateKind.parse("frequent")


def test_closed_family_toy(toy):
    closed = [x for x in all_itemsets(5) if x and is_closed(toy, x)]
    assert closed == [(0,), (4,), (1, 3, 4), (0, 1, 2, 3, 4)]
    # no item occurs in every transaction, so the empty set is closed too
    assert is_closed(toy, ())


def test_free_family_toy(toy):
    free = [x for x in all_itemsets(5) if is_free(toy, x)]
    assert free == [
        (),
        (0,), (1,), (2,), (3,), (4,),
        (0, 1), (0, 3), (0, 4),
    ]


def test_totally_shattered_toy(toy):
    assert is_totally_shattered(toy, (0, 1))
    assert is_totally_shattered(toy, (0, 3))
    assert not is_totally_shattered(toy, (0, 2))
    assert is_totally_shattered(toy, ())
    for x in range(5):
        assert is_totally_shattered(toy, (x,))


def test_non_derivable_toy(toy):
    assert is_non_derivable(toy, (0, 2))
    assert is_non_derivable(toy, ())
    # both parity classes of (0,1,2) carry an empty cell, pinning the support
    assert not is_non_derivable(toy, (0, 1, 2))


def test_bounds_toy(toy):
    assert derivability_bounds(toy, (0,)) == (0, 6)
    assert derivability_bounds(toy, (0, 2)) == (0, 2)
    assert derivability_bounds(toy, (0, 1, 2)) == (2, 2)
    with pytest.raises(ValueError):
        derivability_bounds(toy, ())


def test_bounds_bracket_support_and_match_predicate():
    for db in small_corpus(10):
        for items in all_itemsets(db.n_items, 3):
            if not items:
                continue
            lo, hi = derivability_bounds(db, items)
            s = support(db, items)
            assert lo <= s <= hi
            assert (lo == hi) == (not is_non_derivable(db, items))


def test_free_nd_ts_are_downward_closed():
    checks = {
        PredicateKind.FREE: is_free,
        PredicateKind.NON_DERIVABLE: is_non_derivable,
        PredicateKind.TOTALLY_SHATTERED: is_totally_shattered,
    }
    for db in small_corpus(10, base_seed=50):
        for items in all_itemsets(db.n_items, 4):
            for kind, fn in checks.items():
                if fn(db, items):
                    for drop in items:
                        sub = tuple(i for i in items if i != drop)
                        assert fn(db, sub), (kind, items, drop)


def test_empty_database_conventions():
    empty = TransactionDatabase([], n_items=3)
    assert is_free(empty, ())
    assert not is_free(empty, (0,))
    assert not is_totally_shattered(empty, ())
    assert is_non_derivable(empty, ())
    # with zero transactions every extension ties the empty set's support
    assert not is_closed(empty, ())


def test_full_column_blocks_empty_closure():
    db = TransactionDatabase([[0], [0, 1]])
    assert not is_closed(db, ())
    assert is_closed(db, (0,))


def test_dispatch_matches_direct_calls(toy):
    for items in all_itemsets(5, 2):
        assert evaluate_predicate(toy, items, PredicateKind.CLOSED) == is_closed(toy, items)
        assert evaluate_predicate(toy, items, PredicateKind.FREE) == is_free(toy, items)
        assert evaluate_predicate(toy, items, PredicateKind.NON_DERIVABLE) == is_non_derivable(toy, items)
        assert evaluate_predicate(toy, items, PredicateKind.TOTALLY_SHATTERED) == is_totally_shattered(toy, items)


def test_evaluate_predicate_tests_given_classes(toy):
    # the walk passes the classes it counted; they are tested, not recounted
    for items in all_itemsets(5, 3):
        for kind in (PredicateKind.FREE, PredicateKind.NON_DERIVABLE,
                     PredicateKind.TOTALLY_SHATTERED):
            classes = survival_classes(toy, items, kind)
            assert evaluate_predicate(toy, items, kind, classes) == \
                evaluate_predicate(toy, items, kind), (items, kind)
        assert not evaluate_predicate(toy, items, PredicateKind.FREE, ((1, 0),))
        assert evaluate_predicate(toy, items, PredicateKind.NON_DERIVABLE, ([0], [1]))
    with pytest.raises(ValueError, match="closedness has no survival classes"):
        evaluate_predicate(toy, (0,), PredicateKind.CLOSED, ((1,),))


def test_predicates_false_stays_false_under_deletion():
    # deleting transactions never turns a failing predicate back on
    for db in small_corpus(6, base_seed=80, max_rows=7):
        keep_all = range(len(db))
        for items in all_itemsets(db.n_items, 2):
            for kind in PredicateKind:
                if evaluate_predicate(db, items, kind):
                    continue
                for drop in keep_all:
                    sub = db.subset([t for t in keep_all if t != drop])
                    assert not evaluate_predicate(sub, items, kind), (items, kind, drop)
