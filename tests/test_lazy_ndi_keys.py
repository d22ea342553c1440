"""Lazy, exact ndi keys: compare_keys agrees with the first differing
coefficient of the full polynomials, a cell is included only below the
first difference of the pair compared, and printed keys (the full
expansion) keep their text."""

import math
import random
from itertools import combinations
from pathlib import Path

from hypothesis import given, settings, strategies as st

from conftest import all_itemsets, databases, random_db
from robustmine import (EQUAL, MiningConfig, PredicateKind, TransactionDatabase,
                        compare_keys, compare_polynomials, expand, mine_robust,
                        ndi_polynomial, order_key)
from robustmine.cli import main
from robustmine.ordering import NdiPolynomial

NDI = PredicateKind.NON_DERIVABLE
GOLDEN = Path(__file__).parent / "golden"


def sparse(poly):
    return {k: c for k, c in enumerate(poly) if c}


def multisets(classes):
    return tuple(sorted(tuple(sorted(c)) for c in classes))


def assert_keys_order_like_polynomials(db, itemsets):
    keys = [order_key(db, items, NDI) for items in itemsets]
    polys = {key.items: sparse(ndi_polynomial(db, key.items)) for key in keys}
    for x, y in combinations(keys, 2):
        want = compare_polynomials(polys[x.items], polys[y.items])
        assert compare_keys(x, y) == want == -compare_keys(y, x), (x.items, y.items)
    for key in keys:
        assert sparse(key.payload.dense()) == polys[key.items]
    return keys, polys


@given(st.lists(st.integers(0, 9), max_size=6), st.integers(0, 40))
def test_truncated_expansion_is_a_prefix(cells, d):
    assert expand(cells, d) == expand(cells, sum(cells) + d)[:d + 1]


@settings(max_examples=120, deadline=None)
@given(databases())
def test_lazy_order_matches_full_polynomials(case):
    transactions, n_items = case
    db = TransactionDatabase(transactions, n_items=n_items)
    # the empty itemset (no odd cell, r = 1) is among them
    assert_keys_order_like_polynomials(db, all_itemsets(n_items, 3))


def test_exact_ties_between_different_classes():
    # W1's singletons all have r = 1 - beta**|D| whatever their support
    db = random_db(1, 5000, 30, 0.15)
    itemsets = [(i,) for i in range(30)] + list(combinations(range(8), 2))
    keys, polys = assert_keys_order_like_polynomials(db, itemsets)
    ties = [(x, y) for x, y in combinations(keys, 2) if compare_keys(x, y) == EQUAL]
    differ = [(x, y) for x, y in ties if multisets(x.payload.classes) != multisets(y.payload.classes)]
    assert len(differ) >= 28


def test_keys_first_differing_far_above_lo():
    # pair (0, 1) has cells 11: 100, 10: 300, 01: 600, 00: 1000 and pair (2, 3)
    # 11: 100, 10: 300, 01: 800, 00: 800: both start at lo = 400 with the same
    # coefficient and first differ at degree 700
    def row(t, cuts):
        return [(1, 1), (1, 0), (0, 1), (0, 0)][sum(t >= c for c in cuts)]

    rows = []
    for t in range(2000):
        a, b = row(t, (100, 400, 1000))
        c, d = row((t * 7) % 2000, (100, 400, 1200))
        rows.append([i for i, bit in enumerate((a, b, c, d)) if bit])
    db = TransactionDatabase(rows, n_items=4)
    assert len(db) == 2000
    keys, polys = assert_keys_order_like_polynomials(db, all_itemsets(4))
    x, y = (next(k for k in keys if k.items == it) for it in ((0, 1), (2, 3)))
    assert x.payload.lo == y.payload.lo == 400
    first = min(k for k in polys[x.items].keys() | polys[y.items].keys()
                if polys[x.items].get(k) != polys[y.items].get(k))
    assert first == 700
    fresh = [order_key(db, it, NDI) for it in ((0, 1), (2, 3))]
    assert compare_keys(*fresh) != EQUAL
    # no cell above the first difference was included: 1000 and 800 are left out
    included = [c >> 1 for key in fresh for state in key.payload.states.values()
                for c in key.payload.cells[:state[0]]]
    assert included and max(included) <= 700


def test_cells_are_included_only_below_a_first_difference(monkeypatch):
    """In W1's ndi mine a cell c is included only in a comparison whose two
    full polynomials agree on every degree below c, and only exact ties
    compare EQUAL."""
    db = random_db(1, 5000, 30, 0.15)
    compare, include = NdiPolynomial.compare, NdiPolynomial.include
    pairs, included, outcomes = [], [], []

    def traced_compare(self, other):
        pairs.append((self, other))
        outcome = compare(self, other)
        outcomes.append(pairs.pop() + (outcome,))
        return outcome

    def traced_include(self, width, upto):
        before = self.states.get(width, [0])[0]
        out = include(self, width, upto)
        cells = [c >> 1 for c in self.cells[before:self.states[width][0]]]
        if cells:
            included.append((pairs[-1], cells))
        return out

    monkeypatch.setattr(NdiPolynomial, "compare", traced_compare)
    monkeypatch.setattr(NdiPolynomial, "include", traced_include)
    mined = mine_robust(db, MiningConfig(NDI, alpha=0.5, rho=0.1, min_support=50))
    monkeypatch.undo()
    assert len(mined) == 465
    dense = {}

    def first_difference(pair):
        x, y = (dense.setdefault(id(p), p.dense()) for p in pair)
        return next((k for k, (a, b) in enumerate(zip(x, y)) if a != b), math.inf)

    assert included
    for pair, cells in included:
        assert max(cells) <= first_difference(pair), (pair[0].classes, pair[1].classes)
    # some comparisons include cells past lo, one horizon at a time
    assert any(max(cells) > pair[0].lo for pair, cells in included)
    ties = [(x, y) for x, y, outcome in outcomes if outcome == EQUAL]
    assert ties and all(first_difference(pair) == math.inf for pair in ties)


def seeded_2000_row_file(path):
    rng = random.Random(2000)
    rows = []
    while len(rows) < 2000:
        row = [i for i in range(10) if rng.random() < 0.4]
        if row:
            rows.append(row)
    path.write_text("".join(" ".join(map(str, r)) + "\n" for r in rows))
    return str(path)


def test_printed_ndi_keys_match_golden(tmp_path, capsys):
    data = seeded_2000_row_file(tmp_path / "d2000.dat")
    for extra, name in (([], "rank_ndi_top5.tsv"),
                        (["--min-size", "2"], "rank_ndi_top5_min2.tsv"),
                        (["--min-size", "3"], "rank_ndi_top5_min3.tsv")):
        assert main(["rank", "--input", data, "--predicate", "ndi", "--top-k", "5", *extra]) == 0
        assert capsys.readouterr().out == (GOLDEN / name).read_text(), name
