"""The survival-class table against the oracle's definitions.

Predicate tests, mining, robustness and ranking keys of the free, totally
shattered and non-derivable properties all read the table in
predicates.SURVIVAL_CLASSES; the oracles and these tests take the truth from
oracle.definition, which does not. The cell classes are also rebuilt here
from the cell table, with the parity of each value vector computed in the
test.
"""

from fractions import Fraction
from itertools import chain, combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_itemsets, databases, random_db, row_items
from robustmine import (PredicateKind, TransactionDatabase, breakdown_vector, canon_items,
                        cell_table, evaluate_predicate, expand, margin_vector,
                        mine_closed, ndi_polynomial, one_zero_cells, order_key, robustness)
from robustmine.oracle import definition
from robustmine import predicates
from robustmine.predicates import SURVIVAL_CLASSES, classes_hold, survival_classes


def reference_classes(db, items, kind):
    # the table is indexed by mask: value vector v is entry sum(v_pos << pos)
    table = cell_table(db, items)
    counts = {v: table[sum(b << pos for pos, b in enumerate(v))]
              for v in product((0, 1), repeat=len(canon_items(items)))}
    if kind is PredicateKind.FREE:
        return [one_zero_cells(db, items)]
    if kind is PredicateKind.TOTALLY_SHATTERED:
        return [list(counts.values())]
    return [[c for v, c in counts.items() if sum(v) % 2 == parity] for parity in (1, 0)]


@settings(max_examples=150, deadline=None)
@given(databases(), st.data())
def test_table_matches_reference_predicates(case, data):
    transactions, n_items = case
    db = TransactionDatabase(transactions, n_items=n_items)
    empty = db.subset([])
    itemsets = st.lists(st.integers(0, n_items - 1), max_size=4) if n_items else st.just([])
    assert set(SURVIVAL_CLASSES) == set(PredicateKind) - {PredicateKind.CLOSED}
    for items in [[]] + [data.draw(itemsets) for _ in range(3)]:
        for kind in SURVIVAL_CLASSES:
            holds = definition(row_items(db), canon_items(items), n_items, kind)
            truth = holds((1 << len(db)) - 1)
            classes = survival_classes(db, items, kind)
            assert classes_hold(classes) == evaluate_predicate(db, items, kind) == truth, \
                (items, kind)
            assert sorted(map(sorted, classes)) == \
                sorted(map(sorted, reference_classes(db, items, kind))), (items, kind)
            assert robustness(db, items, kind, 1.0) == float(truth), (items, kind)
            # alpha = 0 deletes every transaction
            gone = float(holds(0))
            assert evaluate_predicate(empty, items, kind) == holds(0), (items, kind)
            assert robustness(db, items, kind, 0.0) == gone, (items, kind)
            assert robustness(empty, items, kind, 0.0) == gone, (items, kind)
            key = order_key(db, items, kind)
            if kind is PredicateKind.NON_DERIVABLE:
                odd, even = reference_classes(db, items, kind)
                n = len(db)
                want = [a + b - c for a, b, c in
                        zip(expand(odd, n), expand(even, n), expand(chain(odd, even), n))]
                assert key.payload.dense() == ndi_polynomial(db, items) == want, items
            else:
                want = tuple(sorted(reference_classes(db, items, kind)[0]))
                assert key.payload == margin_vector(db, items, kind) == want, (items, kind)


def test_closed_has_no_row(toy):
    with pytest.raises(ValueError):
        survival_classes(toy, (0,), PredicateKind.CLOSED)


def exact_robustness(db, items, kind, alpha):
    """sum over transaction subsets where the predicate holds, in rationals,
    from the exhaustive oracle's breakdown counts."""
    a = Fraction(alpha)
    n = len(db)
    broken = sum(c * (1 - a) ** k * a ** (n - k)
                 for k, c in enumerate(breakdown_vector(db, items, kind)))
    return 1 - broken


@pytest.mark.parametrize("kind", [PredicateKind.NON_DERIVABLE, PredicateKind.CLOSED])
def test_float_robustness_pinned_to_rationals(kind):
    # near alpha = 0 the scores are tiny and ndi's 1 - (1 - o_odd)(1 - o_even)
    # cancels; the absolute error still stays at rounding level
    for seed in (41, 42, 43):
        db = random_db(seed, 9, 5, 0.7)
        family = mine_closed(db, 1)
        for items in all_itemsets(5, 3):
            for alpha in (1e-3, 1e-2):
                got = robustness(db, items, kind, alpha, closed_family=family)
                exact = exact_robustness(db, items, kind, alpha)
                assert abs(Fraction(got) - exact) <= Fraction(1e-14), (seed, items, alpha)


def _enumerated_split(table):
    """(odd, even) of a cell table, one pass over its masks by their bit_count."""
    odd, even = [], []
    for idx, c in enumerate(table):
        (odd if idx.bit_count() & 1 else even).append(c)
    return tuple(odd), tuple(even)


@pytest.mark.parametrize("width", range(7))
def test_ndi_classes_split_the_table_by_parity(width):
    # width 0 has an empty odd class, width 1 one cell in each class
    db = random_db(5, 80, 6, 0.5)
    for items in combinations(range(6), width):
        odd, even = survival_classes(db, items, PredicateKind.NON_DERIVABLE)
        assert (odd, even) == _enumerated_split(cell_table(db, items)), items
        assert len(odd) == 2 ** width // 2 and len(even) == 2 ** width - len(odd)
    assert survival_classes(db, (), PredicateKind.NON_DERIVABLE) == ((), (80,))


def test_wide_ndi_tables_keep_no_getters():
    # a 2**16-cell table's index lists would outlive the call; tables of up to
    # 2**12 cells, all the walk needs below 2**11 rows, keep theirs
    db = random_db(5, 40, 16, 0.5)
    ndi, cached = PredicateKind.NON_DERIVABLE, predicates._parity_getters
    cached.cache_clear()
    wide = survival_classes(db, range(16), ndi)
    assert wide == _enumerated_split(cell_table(db, range(16)))
    assert cached.cache_info().currsize == 0
    survival_classes(db, range(12), ndi)
    assert cached.cache_info().currsize == 1
