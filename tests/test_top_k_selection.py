"""top_k selects its k rows instead of sorting the family: the selection is
the sorted ranking's prefix, ties included, at a fraction of the comparisons."""

from hypothesis import given, settings, strategies as st

import robustmine.ordering as ordering
from conftest import databases, random_db
from robustmine import EQUAL, PredicateKind, TransactionDatabase, compare_keys, top_k


def rows(ranked):
    return [(p.position, p.items, p.support, p.key.describe()) for p in ranked]


@settings(max_examples=60, deadline=None)
@given(databases(), st.data())
def test_selection_is_the_sorted_prefix(case, data):
    db = TransactionDatabase(*case)
    include_empty = data.draw(st.booleans(), "include_empty")
    min_size = data.draw(st.integers(0, 3), "min_size")
    max_size = data.draw(st.none() | st.integers(min_size, 4), "max_size")
    window = dict(min_size=min_size, max_size=max_size, include_empty=include_empty)
    for kind in PredicateKind:
        ranking = rows(top_k(db, kind, 1 << 30, **window))
        for k in sorted({1, 2, data.draw(st.integers(1, len(ranking) + 1), "k"),
                         len(ranking), len(ranking) + 1} - {0}):
            assert rows(top_k(db, kind, k, **window)) == ranking[:k], (kind, k)


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
    calls = [0]
    compare = ordering.compare_keys

    def counted(a, b):
        calls[0] += 1
        return compare(a, b)

    monkeypatch.setattr(ordering, "compare_keys", counted)
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
