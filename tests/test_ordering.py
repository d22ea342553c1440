import math
import random

import pytest

from conftest import random_db
from robustmine import (
    EQUAL,
    GREATER,
    LESS,
    PredicateKind,
    alpha_bound,
    closed_coefficients,
    compare_keys,
    compare_polynomials,
    compare_sequences,
    evaluate_poly,
    expand,
    margin_vector,
    mine_closed,
    ndi_polynomial,
    order_key,
    rank,
    robustness,
    seq_diff,
    comparison_exact,
)
from robustmine.ordering import ClosedFamilyIndex

TOY_CLOSED = [((0,), 3), ((4,), 5), ((1, 3, 4), 4), ((0, 1, 2, 3, 4), 2)]


def test_margin_vectors(toy):
    assert margin_vector(toy, (0, 1), PredicateKind.FREE) == (1, 2)
    assert margin_vector(toy, (0, 4), PredicateKind.FREE) == (1, 3)
    assert margin_vector(toy, (0, 1), PredicateKind.TOTALLY_SHATTERED) == (1, 1, 2, 2)
    assert margin_vector(toy, (), PredicateKind.FREE) == ()
    with pytest.raises(ValueError):
        margin_vector(toy, (0,), PredicateKind.NON_DERIVABLE)


def test_compare_sequences():
    assert compare_sequences((1, 2), (1, 3)) == LESS
    assert compare_sequences((1, 3), (1, 2)) == GREATER
    assert compare_sequences((2, 2), (2, 2)) == EQUAL
    # a proper prefix wins: the longer vector has extra ways to fail
    assert compare_sequences((2, 2), (2,)) == LESS
    assert compare_sequences((2,), (2, 2)) == GREATER
    assert compare_sequences((), (1,)) == GREATER


def test_seq_diff():
    assert seq_diff((1, 2), (1, 3)) == 1
    assert seq_diff((1, 2), (4, 9)) == 3
    assert seq_diff((2, 2), (2,)) == math.inf
    assert seq_diff((3, 1), (3, 1)) == math.inf
    with pytest.raises(ValueError):
        seq_diff((1, 3), (1, 2))
    with pytest.raises(ValueError):
        seq_diff((1,), (1, 2))


def test_alpha_bound():
    assert alpha_bound((0, 1), (0, 4), 1, PredicateKind.FREE) == pytest.approx(2 / 3)
    assert alpha_bound((1,), (0,), 1, PredicateKind.TOTALLY_SHATTERED) == pytest.approx(1 - 1 / 3)
    assert alpha_bound((0, 1), (0, 4), 2, PredicateKind.FREE) == pytest.approx(1 - 3 ** -0.5)
    assert alpha_bound((0, 1), (0, 4), math.inf, PredicateKind.FREE) == 0.0
    with pytest.raises(ValueError):
        alpha_bound((0,), (1,), 0, PredicateKind.FREE)
    with pytest.raises(ValueError):
        alpha_bound((0,), (1,), 1, PredicateKind.CLOSED)


def test_expand_known_product():
    assert expand([3, 2], 6) == [1, 0, -1, -1, 0, 1, 0]
    assert expand([], 4) == [1, 0, 0, 0, 0]
    assert expand([0], 4) == [0, 0, 0, 0, 0]


def test_expand_matches_direct_product():
    rng = random.Random(7)
    for _ in range(50):
        cells = [rng.randint(0, 5) for _ in range(rng.randint(0, 4))]
        deg = sum(cells) + rng.randint(0, 3)
        coeffs = expand(cells, deg)
        for beta in (0.0, 0.31, 0.5, 0.92, 1.0):
            direct = 1.0
            for s in cells:
                direct *= 1.0 - beta ** s
            assert evaluate_poly(dict(enumerate(coeffs)), beta) == pytest.approx(direct, abs=1e-12)


def test_evaluate_poly_sparse_and_dense():
    assert evaluate_poly({0: 1, 2: -1}, 0.5) == pytest.approx(0.75)
    assert evaluate_poly(dict(enumerate([1, 0, -1])), 0.5) == pytest.approx(0.75)
    assert evaluate_poly({}, 0.9) == 0.0


def test_ndi_polynomial_toy(toy):
    assert ndi_polynomial(toy, (0, 1)) == [1, 0, -1, -2, 1, 2, -1]
    assert ndi_polynomial(toy, (0, 2)) == [1, 0, -1, -1, 0, 1, 0]
    for items in [(0, 1), (0, 2), (1, 3), (0, 1, 2)]:
        for alpha in (0.2, 0.5, 0.8):
            direct = robustness(toy, items, PredicateKind.NON_DERIVABLE, alpha)
            poly = dict(enumerate(ndi_polynomial(toy, items)))
            assert evaluate_poly(poly, 1 - alpha) == pytest.approx(direct, abs=1e-12)


def test_closed_coefficients_toy(toy):
    cc = closed_coefficients((4,), TOY_CLOSED, 5, n_items=5)
    assert cc.coeffs == {0: 1, 1: -1}
    assert cc.contributions == {(4,): 1, (1, 3, 4): -1, (0, 1, 2, 3, 4): 0}
    assert closed_coefficients((1, 3, 4), TOY_CLOSED, 4, n_items=5).coeffs == {0: 1, 2: -1}
    assert closed_coefficients((0, 1, 2, 3, 4), TOY_CLOSED, 2, n_items=5).coeffs == {0: 1}
    assert closed_coefficients((0,), TOY_CLOSED, 3, n_items=5).coeffs == {0: 1, 1: -1}


def test_closed_coefficients_empty_query(toy):
    # the empty itemset never shows up in mined families but is closed
    # whenever no item fills a full column, so membership is inferred
    cc = closed_coefficients((), TOY_CLOSED, 6, n_items=5)
    assert cc.coeffs == {0: 1, 1: -1, 3: -1, 4: 1}
    assert cc.contributions[()] == 1
    assert cc.contributions[(0, 1, 2, 3, 4)] == 1
    # a full column keeps the empty itemset non-closed in every subsample
    blocked = closed_coefficients((), [((0,), 2), ((0, 1), 1)], 2, n_items=2)
    assert blocked.coeffs == {}


def test_closed_coefficients_validation():
    with pytest.raises(ValueError):
        closed_coefficients((0,), [((0,), 3), ((0,), 4)], 3, n_items=2)
    with pytest.raises(ValueError):
        # a superset may not have larger support than the itemset itself
        closed_coefficients((0,), [((0, 1), 5)], 3, n_items=2)


def test_closed_coefficients_exactness_flags(toy):
    complete = closed_coefficients((4,), TOY_CLOSED, 5, n_items=5, min_support=1)
    assert all(complete.is_exact(k) for k in range(6))
    pruned = [(x, s) for x, s in TOY_CLOSED if s >= 4]
    cc = closed_coefficients((4,), pruned, 5, n_items=5, min_support=4)
    assert cc.coeffs == {0: 1, 1: -1}
    assert cc.is_exact(0) and cc.is_exact(1)
    assert not cc.is_exact(2)


def test_compare_polynomials():
    assert compare_polynomials({0: 1, 1: -1}, {0: 1, 2: -1}) == LESS
    assert compare_polynomials({0: 1, 2: -1}, {0: 1, 1: -1}) == GREATER
    assert compare_polynomials([1, 0, -1, 0], {0: 1, 2: -1}) == EQUAL
    assert compare_polynomials([1, -1], [1, -1, 0, 0]) == EQUAL
    # larger trailing coefficient means faster decay, hence less robust
    assert compare_polynomials([1, -2], [1, -1]) == LESS


def test_order_key_describe(toy):
    free_key = order_key(toy, (0, 1), PredicateKind.FREE)
    assert free_key.describe() == "1,2"
    closed_key = order_key(toy, (1, 3, 4), PredicateKind.CLOSED, closed_family=TOY_CLOSED)
    assert closed_key.describe() == "0:1,2:-1"
    with pytest.raises(ValueError):
        order_key(toy, (0,), PredicateKind.CLOSED)


def test_rank_free_toy(toy):
    free = [(), (0,), (1,), (2,), (3,), (4,), (0, 1), (0, 3), (0, 4)]
    got = [items for items, _ in rank(toy, free, PredicateKind.FREE)]
    assert got == [(), (2,), (0,), (1,), (3,), (4,), (0, 4), (0, 1), (0, 3)]


def test_rank_breaks_ties_by_support_then_itemset(toy):
    # b and d share margin (2,); ab and ad share margin (1, 2) and support
    got = [items for items, _ in rank(toy, [(3,), (1,)], PredicateKind.FREE)]
    assert got == [(1,), (3,)]
    got = [items for items, _ in rank(toy, [(0, 3), (0, 1)], PredicateKind.FREE)]
    assert got == [(0, 1), (0, 3)]


def test_rank_closed_toy(toy):
    fam = mine_closed(toy, 1)
    assert fam == TOY_CLOSED
    got = [items for items, _ in rank(toy, [x for x, _ in fam], PredicateKind.CLOSED,
                                      closed_family=fam)]
    assert got == [(0, 1, 2, 3, 4), (1, 3, 4), (4,), (0,)]


def test_rank_is_input_order_independent(toy):
    free = [(0, 1), (4,), (), (0, 3), (2,), (1,), (0, 4), (3,), (0,)]
    a = rank(toy, free, PredicateKind.FREE)
    b = rank(toy, list(reversed(free)), PredicateKind.FREE)
    assert [x for x, _ in a] == [x for x, _ in b]


def test_comparison_exact(toy):
    fa = order_key(toy, (0,), PredicateKind.FREE)
    fb = order_key(toy, (1,), PredicateKind.FREE)
    assert comparison_exact(fa, fb)
    full = order_key(toy, (0, 1, 2, 3, 4), PredicateKind.CLOSED, closed_family=TOY_CLOSED)
    bde = order_key(toy, (1, 3, 4), PredicateKind.CLOSED, closed_family=TOY_CLOSED)
    assert comparison_exact(full, bde)
    # with a support-2 floor the deciding degree of the same pair is uncertain
    floor2 = ClosedFamilyIndex(TOY_CLOSED, min_support=2)
    full2 = order_key(toy, (0, 1, 2, 3, 4), PredicateKind.CLOSED, closed_family=floor2)
    bde2 = order_key(toy, (1, 3, 4), PredicateKind.CLOSED, closed_family=floor2)
    assert not comparison_exact(full2, bde2)
    e2 = order_key(toy, (4,), PredicateKind.CLOSED, closed_family=floor2)
    assert comparison_exact(e2, bde2)


def test_margin_order_matches_polynomial_order():
    # on predicate-holders the sorted cell vectors and their expanded
    # survival polynomials order identically
    for seed in range(6):
        db = random_db(200 + seed, 6 + seed, 4, 0.5)
        n = len(db)
        for kind in (PredicateKind.FREE, PredicateKind.TOTALLY_SHATTERED):
            vecs = {}
            for a in range(db.n_items):
                for b in range(a + 1, db.n_items):
                    v = margin_vector(db, (a, b), kind)
                    if v and min(v) > 0:
                        vecs[(a, b)] = v
            pairs = sorted(vecs)
            for x in pairs:
                for y in pairs:
                    c = compare_sequences(vecs[x], vecs[y])
                    p = compare_polynomials(expand(vecs[x], n), expand(vecs[y], n))
                    assert c == p, (kind, x, y, vecs[x], vecs[y])
