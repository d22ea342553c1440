"""The tidset counters against the row-scan counters they replaced.

RowScan below is a test-only copy of the horizontal counters: one int bit
row per transaction, every count a scan over all rows. It is built from the
raw transaction lists, so it shares no code with the tidset columns.
"""

import itertools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import TOY_TEXT, databases, row_items
from robustmine import (PredicateKind, TransactionDatabase, cell_table,
                        exhaustive_robustness, generalized_support, is_closed,
                        one_zero_cells, parse_fimi, support)
from robustmine.dataset import _ones


class RowScan:
    def __init__(self, transactions, n_items):
        self.rows = []
        for items in transactions:
            r = 0
            for i in items:
                r |= 1 << i
            self.rows.append(r)
        self.n_items = n_items

    def subset(self, keep):
        out = RowScan([], self.n_items)
        out.rows = [self.rows[i] for i in keep]
        return out

    def mask(self, items):
        m = 0
        for i in items:
            if not 0 <= i < self.n_items:
                raise ValueError(f"item {i} outside 0..{self.n_items - 1}")
            m |= 1 << i
        return m

    def support(self, items):
        mask = self.mask(items)
        return sum(1 for r in self.rows if r & mask == mask)

    def generalized_support(self, items, values):
        mask = self.mask(items)
        want = 0
        for i, v in zip(items, values):
            if v:
                want |= 1 << i
        return sum(1 for r in self.rows if r & mask == want)

    def one_zero_cells(self, items):
        items = tuple(sorted(set(items)))
        mask = self.mask(items)
        return tuple(sum(1 for r in self.rows if r & mask == mask ^ (1 << x)) for x in items)

    def cell_table(self, items):
        items = tuple(sorted(set(items)))
        self.mask(items)
        counts = [0] * (1 << len(items))
        for r in self.rows:
            idx = 0
            for pos, x in enumerate(items):
                idx |= (r >> x & 1) << pos
            counts[idx] += 1
        return tuple(counts)

    def is_closed(self, items):
        items = tuple(sorted(set(items)))
        base = self.support(items)
        present = self.mask(items)
        return all(self.support(items + (y,)) != base
                   for y in range(self.n_items) if not present >> y & 1)


def _views(draw, transactions, n_items):
    """Pairs of (tidset database, row-scan reference) covering the database, a
    subset, a keep-mask sub-database and a keep-mask of a subset."""
    db = TransactionDatabase(transactions, n_items=n_items)
    ref = RowScan(transactions, n_items)
    n = len(transactions)
    keep = sorted(draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)))
    mask = draw(st.integers(0, (1 << n) - 1))
    by_mask = [j for j in range(n) if mask >> j & 1]
    sub, sub_ref = db.subset(keep), ref.subset(keep)
    inner = draw(st.integers(0, (1 << len(keep)) - 1))
    by_inner = [j for j in range(len(keep)) if inner >> j & 1]
    return [(db, ref), (sub, sub_ref), (db.subset_mask(mask), ref.subset(by_mask)),
            (sub.subset_mask(inner), sub_ref.subset(by_inner))]


@settings(max_examples=150, deadline=None)
@given(databases(), st.data())
def test_tidset_counts_match_row_scans(case, data):
    transactions, n_items = case
    itemsets = st.lists(st.integers(0, n_items - 1), max_size=4) if n_items else st.just([])
    for db, ref in _views(data.draw, transactions, n_items):
        assert len(db) == len(ref.rows)
        assert row_items(db) == [tuple(i for i in range(n_items) if r >> i & 1)
                                 for r in ref.rows]
        for items in [[]] + [data.draw(itemsets) for _ in range(3)]:
            canon = tuple(sorted(set(items)))
            assert support(db, items) == ref.support(items)
            assert one_zero_cells(db, items) == ref.one_zero_cells(items)
            assert cell_table(db, items) == ref.cell_table(items)
            assert is_closed(db, items) == ref.is_closed(items)
            for values in itertools.product((0, 1), repeat=len(canon)):
                assert generalized_support(db, canon, values) == \
                    ref.generalized_support(canon, values)


@settings(max_examples=60, deadline=None)
@given(databases(), st.data())
def test_sub_databases_equal_fresh_builds(case, data):
    transactions, n_items = case
    for db, ref in _views(data.draw, transactions, n_items):
        rows = [[i for i in range(n_items) if r >> i & 1] for r in ref.rows]
        fresh = TransactionDatabase(rows, n_items=n_items, tids=db.tids)
        assert db == fresh and hash(db) == hash(fresh)
        assert [db.row_items(j) for j in range(len(db))] == [tuple(r) for r in rows]


def test_oracle_on_a_keep_mask_of_a_subset():
    # positions 1, 3, 4 of the toy are not a prefix, so the oracle's masks are
    # moved onto column positions before they select transactions
    toy = parse_fimi(TOY_TEXT)
    sub = toy.subset([1, 3, 4, 5])
    fresh = TransactionDatabase([sub.row_items(j) for j in range(len(sub))],
                                n_items=toy.n_items, tids=sub.tids)
    for kind in PredicateKind:
        if kind is PredicateKind.CLOSED:
            continue
        for items in [(0,), (1, 3), (0, 2, 4)]:
            assert exhaustive_robustness(sub, items, kind, 0.3) == \
                exhaustive_robustness(fresh, items, kind, 0.3)


def test_subset_order_duplicates_and_range():
    toy = parse_fimi(TOY_TEXT)
    assert toy.subset([4, 1]).tids == (1, 4)
    with pytest.raises(ValueError):
        toy.subset([1, 1])
    with pytest.raises(IndexError):
        toy.subset([6])
    with pytest.raises(IndexError):
        toy.subset([-1])
    with pytest.raises(ValueError):
        toy.subset_mask(1 << 6)


def test_sparse_huge_ids_parse_in_bounded_memory():
    # 50 transactions over ids near 5e7: columns grow with the items present,
    # not with the largest id (bit rows over the ids peaked near 340 MB)
    text = "".join(f"{50_000_000 + 7 * i} {49_999_000 + i} 3\n" for i in range(50))
    tracemalloc.start()
    try:
        db = parse_fimi(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert len(db) == 50 and db.n_items == 50_000_344
    assert support(db, (3,)) == 50 and support(db, (50_000_007,)) == 1
    assert is_closed(db, (3,)) and not is_closed(db, (49_999_001,))


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.just(0),
    st.integers(0, (1 << 4096) - 1),  # dense
    st.integers(0, 5000).map(lambda n: (1 << n) - 1),  # all ones
    st.sets(st.integers(0, 200_000), max_size=20).map(lambda ps: sum(1 << p for p in ps)),
))
def test_ones_lists_the_set_bits(x):
    assert _ones(x) == [p for p, d in enumerate(reversed(format(x, "b"))) if d == "1"]
