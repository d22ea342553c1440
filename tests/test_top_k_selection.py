"""top_k keys only what can place: free, ndi and ts walk under a rising key
bound; closed reads each member's lead, its prefix's first two tuples, from
the family index and keys only the members whose lead reaches the k-th.
Either way the rows are the sorted family's prefix, ties included."""

import pytest
from hypothesis import given, settings, strategies as st

import robustmine.mining as mining
import robustmine.ordering as ordering
from conftest import databases, random_db
from robustmine import (EQUAL, GREATER, LESS, PredicateKind, TransactionDatabase, compare_keys,
                        top_k)
from robustmine.mining import family_keys, mine_closed
from robustmine.ordering import ClosedFamilyIndex, closed_coefficients, sort_keys

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


CLOSED = PredicateKind.CLOSED


def closed_index(db, tau):
    family = mine_closed(db, tau)
    return family, ClosedFamilyIndex(family, db.n_items, min_support=tau)


@settings(max_examples=80, deadline=None)
@given(databases(), st.integers(1, 3))
def test_lead_is_the_prefix_start(case, tau):
    db = TransactionDatabase(*case)
    family, index = closed_index(db, tau)
    for items, supp in family:
        assert index.lead(items) == closed_coefficients(items, index, supp).prefix(0)[:2], items


def test_lead_of_a_closed_full_itemset_ends():
    # 9 rows hold 0 and one holds 0 1, the full itemset: it never fails, so it
    # ranks first although the walk by support reaches (0,) first
    db = TransactionDatabase([[0]] * 9 + [[0, 1]])
    family, index = closed_index(db, 1)
    assert family == [((0,), 10), ((0, 1), 1)]
    assert index.lead((0, 1)) == ((0, 0, -1), (1,))
    assert index.lead((0,)) == ((0, 0, -1), (2, -9, 1))
    assert [p.items for p in top_k(db, CLOSED, 1)] == [(0, 1)]


def test_lead_gap_reaches_the_empty_full_itemset_below_tau():
    # (0, 1) and (0, 2) have support 2, below tau 3: (0,)'s one superset left
    # is the full itemset with support 0, so g = supp((0,)) = 7
    db = TransactionDatabase([[0, 1]] * 2 + [[0, 2]] * 2 + [[0]] * 3)
    family, index = closed_index(db, 3)
    assert family == [((0,), 7)]
    assert index.lead((0,)) == ((0, 0, -1), (2, -7, 1))
    assert index.lead((0,)) == closed_coefficients((0,), index, 7).prefix(0)[:2]


def test_members_tied_at_the_kth_lead_are_all_keyed():
    # (8,), (0,), (6,) and (1,) share the lead (2, -4, 1): one cover four
    # rows below them. (8,) has the larger support, (0,) and (6,) the same
    # polynomial and support, and (1,)'s deeper terms place it last. Four
    # members with larger gaps rank first, so the tie spans places 5 to 8
    transactions = ([[0, 3]] * 6 + [[0]] * 4 + [[6, 7]] * 6 + [[6]] * 4 + [[8, 9]] * 7 + [[8]] * 4
                    + [[1, 4, 5]] + [[1, 4]] * 5 + [[1, 5]] * 2 + [[1]] * 2)
    db = TransactionDatabase(transactions)
    family, index = closed_index(db, 1)
    ranking = [(pos, key.items, key.support, key.describe())
               for pos, key in enumerate(sort_keys(family_keys(db, CLOSED)), start=1)]
    tied = [(8,), (0,), (6,), (1,)]
    assert [items for _, items, _, _ in ranking[4:8]] == tied
    assert {index.lead(items) for items in tied} == {((0, 0, -1), (2, -4, 1))}
    assert [r[2:] for r in ranking[4:8]] == [(11, "0:1,4:-1"), (10, "0:1,4:-1"),
                                             (10, "0:1,4:-1"), (10, "0:1,4:-1,7:-1,9:1")]
    for k in range(1, len(ranking) + 2):
        assert rows(top_k(db, CLOSED, k)) == ranking[:k], k


def count_closed_keys(monkeypatch):
    calls = [0]
    coefficients = ordering.closed_coefficients

    def counted(*args, **kwargs):
        calls[0] += 1
        return coefficients(*args, **kwargs)

    monkeypatch.setattr(ordering, "closed_coefficients", counted)
    return calls


@pytest.mark.parametrize("shape, tau, most", (((7, 200, 14, 0.5), 10, 15),
                                              ((1, 5000, 30, 0.15), 50, 12)))
def test_closed_top_ten_keys_few_members(monkeypatch, shape, tau, most):
    # D7 reads 114 leads of 2,064 members and keys 11; W1 reads 30 of 465 and keys 10
    db = random_db(*shape)
    members = len(mine_closed(db, tau))
    assert members > 400
    calls = count_closed_keys(monkeypatch)
    assert len(top_k(db, CLOSED, 10, tau)) == 10
    assert calls[0] <= most, (members, calls[0])
    calls[0] = 0
    assert len(top_k(db, CLOSED, members, tau)) == members
    assert calls[0] == members
