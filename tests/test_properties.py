import math

from hypothesis import given, settings, strategies as st

from robustmine import (
    EQUAL,
    GREATER,
    LESS,
    TransactionDatabase,
    alpha_bound,
    PredicateKind,
    cell_table,
    compare_polynomials,
    compare_sequences,
    evaluate_poly,
    expand,
    parse_fimi,
    seq_diff,
    survival_probability,
)
from robustmine.predicates import survival_classes

sorted_vec = st.lists(st.integers(1, 8), min_size=1, max_size=4).map(
    lambda xs: tuple(sorted(xs)))
cells = st.lists(st.integers(0, 6), min_size=0, max_size=4)
alphas = st.floats(0.0, 1.0, allow_nan=False)


@given(cells, alphas)
def test_expand_agrees_with_survival(cs, alpha):
    beta = 1.0 - alpha
    poly = expand(cs, sum(cs))
    direct = survival_probability(cs, alpha)
    assert abs(evaluate_poly(dict(enumerate(poly)), beta) - direct) <= 1e-9


@given(cells, alphas)
def test_survival_is_a_probability(cs, alpha):
    r = survival_probability(cs, alpha)
    assert 0.0 <= r <= 1.0


@given(cells, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_survival_monotone_in_alpha(cs, a1, a2):
    lo, hi = sorted((a1, a2))
    assert survival_probability(cs, lo) <= survival_probability(cs, hi) + 1e-12


@given(sorted_vec, sorted_vec)
def test_compare_sequences_antisymmetric(s, t):
    c = compare_sequences(s, t)
    assert c == -compare_sequences(t, s)
    if s == t:
        assert c == EQUAL


@given(sorted_vec, sorted_vec, sorted_vec)
def test_compare_sequences_transitive(a, b, c):
    if compare_sequences(a, b) != GREATER and compare_sequences(b, c) != GREATER:
        assert compare_sequences(a, c) != GREATER


@given(sorted_vec, sorted_vec)
def test_sequence_order_equals_polynomial_order(s, t):
    # the parameter-free margin comparison and the coefficient-wise comparison
    # of the expanded survival polynomials always agree
    deg = sum(s) + sum(t)
    want = compare_sequences(s, t)
    got = compare_polynomials(expand(s, deg), expand(t, deg))
    assert got == want, (s, t)


@given(sorted_vec, sorted_vec)
def test_seq_diff_and_bound_consistency(s, t):
    if compare_sequences(s, t) == GREATER:
        s, t = t, s
    d = seq_diff(s, t)
    assert d >= 1
    bound = alpha_bound((0,), tuple(range(len(t))), d, PredicateKind.FREE)
    assert 0.0 <= bound < 1.0
    if d is not math.inf:
        assert int(d) == d


@given(st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=4), max_size=6))
def test_parse_round_trip(rows):
    text = "\n".join(" ".join(str(i) for i in row) for row in rows)
    db = parse_fimi(text)
    assert len(db) == len(rows)
    for idx, row in enumerate(rows):
        assert db.row_items(idx) == tuple(sorted(set(row)))


@given(st.lists(st.lists(st.integers(0, 4), max_size=5), max_size=8))
def test_cell_table_partitions_rows(rows):
    db = TransactionDatabase(rows, n_items=5)
    for items in [(0,), (1, 3), (0, 2, 4)]:
        table = cell_table(db, items)
        assert sum(table) == len(db)
        odd, even = survival_classes(db, items, PredicateKind.NON_DERIVABLE)
        assert sorted(odd + even) == sorted(table)
        assert len(table) == 2 ** len(items)
