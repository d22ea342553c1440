"""Packed ndi keys at their edges: NdiPolynomials built directly order like
compare_polynomials of their dense() forms, and dense() equals an expansion
by plain list convolution that shares no code with the packing."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_itemsets, databases
from robustmine import EQUAL, GREATER, LESS, PredicateKind, TransactionDatabase, compare_polynomials
from robustmine.ordering import NdiPolynomial
from robustmine.predicates import survival_classes


def plain_product(cells):
    poly = [1]
    for s in cells:
        shifted = [0] * s + poly
        poly = [a - b for a, b in zip(poly + [0] * s, shifted)]
    return poly


def plain_ndi(classes, degree):
    a, b = classes
    terms = [plain_product(a), plain_product(b), [-c for c in plain_product([*a, *b])]]
    return [sum(t[k] for t in terms if k < len(t)) for k in range(degree + 1)]


def key(a, b, degree=None):
    return NdiPolynomial((a, b), sum(a) + sum(b) if degree is None else degree)


def included(*keys):
    return [c >> 1 for k in keys for state in k.states.values() for c in k.cells[:state[0]]]


def assert_orders_like_dense(x, y):
    want = compare_polynomials(x.dense(), y.dense())
    fresh_x, fresh_y = NdiPolynomial(x.classes, x.degree), NdiPolynomial(y.classes, y.degree)
    assert fresh_x.compare(fresh_y) == want == -fresh_y.compare(fresh_x)
    # no cell above the first difference was included
    p, q = x.dense(), y.dense()
    first = next((k for k, (a, b) in enumerate(zip(p, q)) if a != b), math.inf)
    assert max(included(fresh_x, fresh_y), default=0) <= first
    assert x.dense() == plain_ndi(x.classes, x.degree)
    assert y.dense() == plain_ndi(y.classes, y.degree)
    return want


def test_seventy_unit_cells_pass_64_bits():
    x, y = key([1] * 35, [1] * 35), key([1] * 36, [1] * 34)
    assert max(map(abs, x.dense())) > 2 ** 64
    # 2 * C(35, 2) = 1190 against C(36, 2) + C(34, 2) = 1191 at degree 2
    assert assert_orders_like_dense(x, y) == LESS
    assert assert_orders_like_dense(x, key([1] * 35, [1] * 35)) == EQUAL


@pytest.mark.parametrize("x, y", [
    (key([0, 3], [2, 1]), key([0, 1], [1, 4])),  # lo = 1 on both
    (key([0], [0, 5]), key([0, 2], [0])),  # lo = 0: r = 0 whatever the degree
    (key([0], [0, 5]), key([0, 1], [3])),
])
def test_zero_cells(x, y):
    assert_orders_like_dense(x, y)


def test_an_empty_class_never_fails():
    x = key([], [2, 3])
    assert x.dense() == [1, 0, 0, 0, 0, 0] and x.lo == math.inf
    assert assert_orders_like_dense(x, key([5], [])) == EQUAL
    assert assert_orders_like_dense(x, key([], [1], 1)) == EQUAL
    assert assert_orders_like_dense(x, key([1], [0])) == GREATER


def test_keys_of_different_widths_pack_at_the_wider():
    x, y = key([3], [4]), key([3, 5, 9, 9], [4, 6, 6, 8])
    assert x.lo == y.lo == 7 and x.degree != y.degree
    assert_orders_like_dense(x, y)
    x, y = key([3], [4]), key([3, 5, 9, 9], [4, 6, 6, 8])
    x.compare(y)
    assert set(x.states) == set(y.states) == {8 + 4}


@pytest.mark.parametrize("x, y", [
    (key([2], [3]), key([2, 40], [3, 41])),
    (key([2, 40], [3, 41]), key([2, 41], [3, 40])),
    (key([2], [3], 50), key([2], [3])),
])
def test_keys_of_different_degree_terminate(x, y):
    assert_orders_like_dense(x, y)


def test_first_difference_on_a_horizon():
    # with every cell up to lo = 5 included, x is exact up to 7 (its next
    # cell is 8) and y up to 8 (next cell 9); the keys first differ at 7
    x, y = key([1, 5], [4, 8]), key([2, 9], [3, 5])
    assert x.lo == y.lo == 5
    first = next(k for k, (p, q) in enumerate(zip(x.dense(), y.dense())) if p != q)
    assert first == 7
    assert assert_orders_like_dense(x, y) == GREATER
    x, y = key([1, 5], [4, 8]), key([2, 9], [3, 5])
    assert x.compare(y) == GREATER
    assert max(included(x, y)) == 5


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 12), min_size=1, max_size=9),
       st.lists(st.integers(0, 12), min_size=1, max_size=9), st.integers(0, 8), st.integers(0, 8))
def test_direct_keys_order_like_dense(xs, ys, cut_x, cut_y):
    x, y = key(xs[:cut_x], xs[cut_x:]), key(ys[:cut_y], ys[cut_y:])
    assert_orders_like_dense(x, y)


@settings(max_examples=60, deadline=None)
@given(databases())
def test_dense_equals_plain_expansion(case):
    transactions, n_items = case
    db = TransactionDatabase(transactions, n_items=n_items)
    for items in all_itemsets(n_items, 3):
        classes = survival_classes(db, items, PredicateKind.NON_DERIVABLE)
        assert NdiPolynomial(classes, len(db)).dense() == plain_ndi(classes, len(db)), items
