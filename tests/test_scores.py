"""One score object per itemset and kind. score(db, X, kind) is a Margin
(free, ts), an NdiPolynomial (ndi) or ClosedCoefficients (closed); its
value(alpha), and values_at of a batch, equal, bit for bit, the per-kind
robustness formulas copied below, its compare equals compare_sequences or
compare_polynomials of the dense forms, and one family-key path gives the
closed rank-distance orders."""

from itertools import chain, combinations, groupby

import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_itemsets, databases, random_db
from robustmine import (ClosedCoefficients, PredicateKind, TransactionDatabase,
                        closed_coefficients, compare_polynomials, compare_sequences,
                        mine_closed, parameter_free_order, robustness,
                        robustness_bucket_order, score, support)
from robustmine.experiments import walk_orders
from robustmine.ordering import (ClosedFamilyIndex, Margin, NdiPolynomial, survival_probability,
                                 values_at)
from robustmine.predicates import survival_classes

CLOSED, NDI = PredicateKind.CLOSED, PredicateKind.NON_DERIVABLE
ALPHAS = st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=4)
EDGE_ALPHAS = (0.0, 1.0, 5e-324, 1e-3, *(k / 10 for k in range(1, 10)), 1.0 - 2.0 ** -53)
CELLS = st.lists(st.integers(0, 10 ** 5), max_size=8)


def plain_checked(r):
    assert -1e-12 <= r <= 1.0 + 1e-12
    return min(1.0, max(0.0, r))


def plain_survival(cells, alpha):
    """Probability that every cell keeps a transaction, largest factor first."""
    beta, prod = 1.0 - alpha, 1.0
    for c in sorted(cells, reverse=True):
        prod *= 1.0 - beta ** c
    return plain_checked(prod)


def plain_value(db, items, kind, alpha, family=None):
    """The robustness formula of each kind as separate functions computed it."""
    if kind is CLOSED:
        if family is None:
            family = mine_closed(db.holding(items), 1)
        coeffs = closed_coefficients(items, family, support(db, items), db.n_items,
                                     min_support=1).coeffs
        return plain_checked(float(sum(c * (1.0 - alpha) ** k for k, c in sorted(coeffs.items()))))
    classes = survival_classes(db, items, kind)
    if kind is NDI:
        return plain_ndi(*classes, alpha)
    (cells,) = classes
    return plain_survival(cells, alpha)


def plain_ndi(odd, even, alpha):
    return plain_checked(1.0 - (1.0 - plain_survival(odd, alpha))
                         * (1.0 - plain_survival(even, alpha)))


def dense(sc):
    """The dense coefficient list of an ndi or closed score."""
    if type(sc) is NdiPolynomial:
        return sc.dense()
    return [sc.coeffs.get(k, 0) for k in range(max(sc.coeffs, default=0) + 1)]


@settings(max_examples=60, deadline=None)
@given(databases(), ALPHAS)
def test_score_values_equal_the_per_kind_formulas_bit_for_bit(data, alphas):
    transactions, n_items = data
    db = TransactionDatabase(transactions, n_items=n_items)
    complete = ClosedFamilyIndex(mine_closed(db, 1), db.n_items)
    batch = []
    for items in all_itemsets(n_items, 3):
        for kind in PredicateKind:
            sc = score(db, items, kind)
            over_index = score(db, items, kind, complete) if kind is CLOSED else sc
            batch.append((items, kind, sc))
            for alpha in alphas:
                want = plain_value(db, items, kind, alpha)
                assert sc.value(alpha) == want == robustness(db, items, kind, alpha), \
                    (items, kind, alpha)
                if kind is CLOSED:
                    assert over_index.value(alpha) == plain_value(db, items, kind, alpha,
                                                                  complete), (items, alpha)
    for alpha in alphas:  # one batch of every kind's scores
        assert values_at([sc for *_, sc in batch], alpha) == \
            [plain_value(db, items, kind, alpha) for items, kind, _ in batch]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.tuples(CELLS), st.tuples(CELLS, CELLS)), max_size=6),
       st.one_of(st.sampled_from(EDGE_ALPHAS), st.floats(0.0, 1.0)))
def test_values_equal_the_reference_loop_bit_for_bit(classes, alpha):
    # cell counts up to 1e5 at the edges of [0, 1]: a batch reads its factors
    # from one table, a lone value is a batch of one, and both multiply in the
    # reference loop's order (float.hex tells -0.0 from 0.0)
    scores = [Margin(sorted(c[0])) if len(c) == 1 else NdiPolynomial(c, sum(map(sum, c)))
              for c in classes]
    want = [plain_survival(c[0], alpha) if len(c) == 1 else plain_ndi(*c, alpha)
            for c in classes]
    assert list(map(float.hex, values_at(scores, alpha))) == list(map(float.hex, want))
    assert [sc.value(alpha) for sc in scores] == want
    for cells in chain.from_iterable(classes):
        assert survival_probability(cells, alpha) == plain_survival(cells, alpha)


def test_a_negative_count_raises_once_others_fill_the_table():
    for batch in ([Margin((1, 2)), Margin((-1, 2))], [NdiPolynomial(((1, 2), (2, -3)), 8)]):
        with pytest.raises(ValueError, match="negative cell count -"):
            values_at(batch, 0.5)
    with pytest.raises(ValueError, match="negative cell count -1"):
        survival_probability([2, -1, 2], 0.5)
    with pytest.raises(ValueError, match="alpha must be in"):
        values_at([], 1.5)


@pytest.mark.parametrize("name, db, tau", [("D7", random_db(7, 200, 14, 0.5), 10),
                                           ("W2", random_db(4, 300, 16, 0.5), 5)])
def test_walk_buckets_equal_the_per_member_values(name, db, tau):
    # buckets group exactly equal floats, so batch values must be the
    # per-member formulas' values bit for bit
    for kind in (PredicateKind.FREE, PredicateKind.TOTALLY_SHATTERED, NDI):
        buckets, order = walk_orders(db, kind, 0.3, tau)
        values = sorted(((plain_value(db, x, kind, 0.3), x) for x in order),
                        key=lambda pair: -pair[0])
        want = [sorted(x for _, x in group) for _, group in groupby(values, key=lambda p: p[0])]
        assert buckets == want == robustness_bucket_order(db, order, kind, 0.3), (name, kind)


@settings(max_examples=40, deadline=None)
@given(databases())
def test_scores_compare_like_their_sequences_and_dense_polynomials(data):
    transactions, n_items = data
    db = TransactionDatabase(transactions, n_items=n_items)
    complete = mine_closed(db, 1)
    itemsets = all_itemsets(n_items, 2)
    for kind in PredicateKind:
        scores = [score(db, x, kind, complete if kind is CLOSED else None) for x in itemsets]
        for sc, x in zip(scores, itemsets):
            if kind is CLOSED:
                assert type(sc) is ClosedCoefficients
                want = ",".join(f"{k}:{c}" for k, c in sc.coeffs.items()) or "0"
            elif kind is NDI:
                assert type(sc) is NdiPolynomial
                want = ",".join(f"{k}:{c}" for k, c in enumerate(sc.dense()) if c) or "0"
            else:
                (cells,) = survival_classes(db, x, kind)
                assert type(sc) is Margin and sc == tuple(sorted(cells))
                want = ",".join(map(str, sorted(cells)))
            assert sc.describe() == want, (x, kind)
        for a, b in combinations(scores, 2):
            if type(a) is Margin:
                want = compare_sequences(tuple(a), tuple(b))
            else:
                want = compare_polynomials(dense(a), dense(b))
            assert a.compare(b) == want == -b.compare(a), kind


def test_a_closed_score_over_a_thresholded_index_refuses_a_value():
    db = random_db(0, 20, 6, 0.5)
    index = ClosedFamilyIndex(mine_closed(db, 2), db.n_items, min_support=2)
    sc = score(db, (0,), CLOSED, index)
    assert sc.min_support == 2 and sc.coeffs
    with pytest.raises(ValueError, match="min_support=1 differs from the index's 2"):
        sc.value(0.5)
    with pytest.raises(ValueError, match="min_support=1 differs from the index's 2"):
        robustness(db, (0,), CLOSED, 0.5, closed_family=index)


@settings(max_examples=40, deadline=None)
@given(databases(), st.integers(1, 3), st.floats(0.0, 1.0, allow_nan=False))
def test_closed_walk_orders_equal_the_bucket_and_parameter_free_orders(data, tau, alpha):
    # the closed rank-distance orders: buckets of each member's value over the
    # threshold-1 family, and the members ranked over the index of the tau family
    transactions, n_items = data
    db = TransactionDatabase(transactions, n_items=n_items)
    family = mine_closed(db, tau)
    members = [x for x, _ in family]
    index = ClosedFamilyIndex(family, db.n_items, min_support=tau)
    want = (robustness_bucket_order(db, members, CLOSED, alpha, mine_closed(db, 1)),
            parameter_free_order(db, members, CLOSED, index))
    assert walk_orders(db, CLOSED, alpha, tau) == want
