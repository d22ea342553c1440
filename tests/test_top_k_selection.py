"""top_k ranks only what it must: free, ndi and ts walk under a rising key
bound, closed selects its k rows from the keyed family. Either way the rows
are the sorted family's prefix, ties included."""

import pytest
from hypothesis import given, settings, strategies as st

import robustmine.mining as mining
import robustmine.ordering as ordering
from conftest import databases, random_db
from robustmine import (EQUAL, GREATER, LESS, PredicateKind, TransactionDatabase, compare_keys,
                        top_k)
from robustmine.mining import family_keys
from robustmine.ordering import sort_keys

BOUNDED = (PredicateKind.FREE, PredicateKind.NON_DERIVABLE, PredicateKind.TOTALLY_SHATTERED)


def rows(ranked):
    return [(p.position, p.items, p.support, p.key.describe()) for p in ranked]


@settings(max_examples=60, deadline=None)
@given(databases(), st.data())
def test_selection_is_the_sorted_prefix(case, data):
    # family_keys walks and keys every member: the unbounded reference
    db = TransactionDatabase(*case)
    include_empty = data.draw(st.booleans(), "include_empty")
    min_support = data.draw(st.sampled_from((0, 1, 2, 0.3)), "min_support")
    min_size = data.draw(st.integers(0, 3), "min_size")
    max_size = data.draw(st.none() | st.integers(min_size, 4), "max_size")
    window = dict(min_size=min_size, max_size=max_size, include_empty=include_empty)
    for kind in PredicateKind:
        family = sort_keys(family_keys(db, kind, min_support, max_size, include_empty, min_size))
        ranking = [(pos, key.items, key.support, key.describe())
                   for pos, key in enumerate(family, start=1)]
        for k in sorted({1, 2, data.draw(st.integers(1, len(ranking) + 1), "k"),
                         len(ranking), len(ranking) + 1} - {0}):
            assert rows(top_k(db, kind, k, min_support, **window)) == ranking[:k], (kind, k)


def _subset_pairs(db, kind, min_support, include_empty):
    """(member key, one-smaller subset key) over a kind's whole family: each
    subset of a member is a member too, the empty itemset when included."""
    keys = {key.items: key for key in family_keys(db, kind, min_support,
                                                  include_empty=include_empty)}
    for items, key in keys.items():
        for j in range(len(items)):
            sub = items[:j] + items[j + 1:]
            if sub or include_empty:
                yield key, keys[sub]


@settings(max_examples=60, deadline=None)
@given(databases(), st.sampled_from((0, 1, 2, 0.3)), st.booleans())
def test_no_member_key_sorts_above_a_subset(case, min_support, include_empty):
    # the bound prunes on this: r_Y <= r_X at every alpha for Y above X
    db = TransactionDatabase(*case)
    for kind in BOUNDED:
        for key, sub in _subset_pairs(db, kind, min_support, include_empty):
            assert compare_keys(key, sub) != GREATER, (kind, key.items, sub.items)


def test_no_member_key_sorts_above_a_subset_on_denser_databases():
    for seed in range(4):
        db = random_db(seed, 60, 9, 0.5)
        for kind in BOUNDED:
            pairs = list(_subset_pairs(db, kind, 2, True))
            assert len(pairs) > 100, kind
            assert all(compare_keys(key, sub) != GREATER for key, sub in pairs), (seed, kind)


def test_keys_equal_to_the_kth_are_not_pruned(monkeypatch):
    # every ndi singleton of support 0 < s < |D| has the classes {s} and
    # {|D| - s}, so one key, r = 1 - beta**|D|: support, then the itemset,
    # decides. Items 4 and 5 come after the bound is first set, at the fourth
    # singleton, and compare EQUAL to it; (4,) places second, beside (3,)
    # of the same support, only because neither is pruned
    supports = (1, 2, 3, 5, 5, 4)
    db = TransactionDatabase([[i for i, s in enumerate(supports) if r < s] for r in range(7)])
    ndi = PredicateKind.NON_DERIVABLE
    pruned = []

    def recording(a, b):
        c = compare_keys(a, b)
        if c == LESS:
            pruned.append(a.items)
        return c

    monkeypatch.setattr(mining, "compare_keys", recording)
    family = sort_keys(family_keys(db, ndi, include_empty=False))
    for k in range(1, 8):
        pruned.clear()
        ranked = top_k(db, ndi, k, include_empty=False)
        assert [p.items for p in ranked] == [key.items for key in family[:k]], k
        assert not [items for items in pruned if len(items) == 1], k
    top = top_k(db, ndi, 2, include_empty=False)
    assert [(p.items, p.support) for p in top] == [((3,), 5), ((4,), 5)]
    assert all(compare_keys(top[-1].key, key) == EQUAL for key in family[:6])


# candidates the W1 top-10 walk may test; it tests 221 / 466 / 409 (free / ndi
# / ts, min size 0) and 496 / 555 / 502 (min size 2), where the whole ndi
# family is 80,033 members
W1_GUARD = 1000


@pytest.mark.parametrize("min_size", (0, 2))
def test_top_ten_on_w1_tests_few_candidates(monkeypatch, min_size):
    db = random_db(1, 5000, 30, 0.15)
    tested = [0]
    evaluate_predicate = mining.evaluate_predicate

    def guarded(db, items, kind, classes=None):
        tested[0] += 1
        if tested[0] > W1_GUARD:  # fail at once, not after walking the family
            raise AssertionError(f"{kind.value} top-10 tested over {W1_GUARD} candidates")
        return evaluate_predicate(db, items, kind, classes)

    monkeypatch.setattr(mining, "evaluate_predicate", guarded)
    for kind in BOUNDED:
        tested[0] = 0
        ranked = top_k(db, kind, 10, min_size=min_size)
        assert len(ranked) == 10 and all(len(p.items) >= min_size for p in ranked), kind


def test_equal_keys_are_ordered_by_itemset():
    # each singleton misses from five of the six rows: margin vector (5,), support 1
    db = TransactionDatabase([[i] for i in range(6)])
    full = top_k(db, PredicateKind.FREE, 1 << 30, include_empty=False)
    assert all(compare_keys(full[0].key, p.key) == EQUAL for p in full)
    assert {p.support for p in full} == {1}
    for k in range(1, 8):
        assert [p.items for p in top_k(db, PredicateKind.FREE, k, include_empty=False)] == \
            [(i,) for i in range(min(k, 6))]


def count_compare_keys(monkeypatch):
    """Count compare_keys calls by sorts (ordering) and by the bound (mining)."""
    calls = [0]
    compare = ordering.compare_keys

    def counted(a, b):
        calls[0] += 1
        return compare(a, b)

    monkeypatch.setattr(ordering, "compare_keys", counted)
    monkeypatch.setattr(mining, "compare_keys", counted)
    return calls


def test_top_ten_of_a_large_family_compares_few_keys(monkeypatch):
    # sorting these families makes about 8 comparisons per member
    db = random_db(4, 300, 16, 0.5)
    for kind, tau in ((PredicateKind.CLOSED, 20), (PredicateKind.FREE, 5)):
        n = len(top_k(db, kind, 1 << 30, min_support=tau))
        assert n >= 1000, kind
        calls = count_compare_keys(monkeypatch)
        top_k(db, kind, 10, min_support=tau)
        monkeypatch.undo()
        assert calls[0] < 2 * n, (kind, n, calls[0])
