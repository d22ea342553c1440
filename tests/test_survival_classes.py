"""The survival-class table against the reference predicates.

Mining, robustness and ranking keys of the free, totally shattered and
non-derivable properties all read the table in predicates.SURVIVAL_CLASSES;
the oracles and these tests read is_free, is_totally_shattered and
is_non_derivable, which do not. The cell classes are also rebuilt here from
the cell table, with the parity of each value vector computed in the test.
"""

from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_itemsets, databases, random_db
from robustmine import (PredicateKind, TransactionDatabase, breakdown_vector, cell_table,
                        complete_closed_family, evaluate_predicate, expand, margin_vector,
                        ndi_polynomial, one_zero_cells, order_key, robustness)
from robustmine.predicates import SURVIVAL_CLASSES, classes_hold, survival_classes


def reference_classes(db, items, kind):
    counts = cell_table(db, items).counts
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
            truth = evaluate_predicate(db, items, kind)
            classes = survival_classes(db, items, kind)
            assert classes_hold(classes) == truth, (items, kind)
            assert sorted(map(sorted, classes)) == \
                sorted(map(sorted, reference_classes(db, items, kind))), (items, kind)
            assert robustness(db, items, kind, 1.0) == float(truth), (items, kind)
            # alpha = 0 deletes every transaction
            gone = float(evaluate_predicate(empty, items, kind))
            assert robustness(db, items, kind, 0.0) == gone, (items, kind)
            assert robustness(empty, items, kind, 0.0) == gone, (items, kind)
            key = order_key(db, items, kind)
            if kind is PredicateKind.NON_DERIVABLE:
                odd, even = reference_classes(db, items, kind)
                n = len(db)
                want = [a + b - c for a, b, c in
                        zip(expand(odd, n), expand(even, n), expand(chain(odd, even), n))]
                assert key.payload == ndi_polynomial(db, items) == want, items
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
        family = complete_closed_family(db)
        for items in all_itemsets(5, 3):
            for alpha in (1e-3, 1e-2):
                got = robustness(db, items, kind, alpha, closed_family=family)
                exact = exact_robustness(db, items, kind, alpha)
                assert abs(Fraction(got) - exact) <= Fraction(1e-14), (seed, items, alpha)
