"""The closed-family engine against the code it replaced.

mine_closed mines by prefix-preserving closure extension and rank indexes the
closed family once; the references below are the Apriori walk filtered by
is_closed and the unindexed superset scan, rewritten here as they behaved.
"""

import sys
import tracemalloc
from itertools import combinations
from unittest import mock

import numpy  # noqa: F401  (imported before the memory traces, as the CLI's mc oracle loads it)
import pytest
from hypothesis import example, given, settings

from conftest import all_itemsets, databases, random_db
from robustmine import (ClosedCoefficients, PredicateKind, TransactionDatabase,
                        closed_coefficients, compare_polynomials, is_closed, mine_closed,
                        order_key, parameter_free_order, parse_fimi, rank,
                        resolve_min_support, robustness, robustness_bucket_order, support)
from robustmine.cli import main
from robustmine.ordering import EQUAL, GREATER, LESS, ClosedFamilyIndex


def reference_mine_closed(db, min_support=1):
    """Every frequent itemset by an all-pairs Apriori join, kept when closed."""
    tau = resolve_min_support(min_support, len(db))
    if tau < 1:
        raise ValueError(f"closed mining needs min support >= 1, got {min_support}")
    out = []
    level = [(i,) for i in range(db.n_items)]
    while level:
        survivors = [it for it in level if support(db, it) >= tau]
        out += [(it, support(db, it)) for it in survivors if is_closed(db, it)]
        alive = set(survivors)
        level = sorted(a + (b[-1],) for a, b in combinations(survivors, 2)
                       if a[:-1] == b[:-1]
                       and all(a[:j] + a[j + 1:] + (b[-1],) in alive for j in range(len(a))))
    return out


def reference_closed_coefficients(items, family, supp_x, n_items=None, min_support=1):
    """The family re-canonicalised and every member masked on each call."""
    x = tuple(sorted(set(items)))
    fam = {}
    for f_items, f_supp in family:
        fi = tuple(sorted(set(f_items)))
        if fi in fam and fam[fi] != f_supp:
            raise ValueError(f"family lists {fi} twice with different supports")
        fam[fi] = f_supp
    if n_items is None:
        n_items = max((it[-1] for it in list(fam) + [x] if it), default=-1) + 1
    if x and x[-1] >= n_items:
        raise ValueError(f"itemset {x} outside the {n_items}-item universe")
    fam.setdefault(tuple(range(n_items)), 0)
    if not x and () not in fam and all(s < supp_x for s in fam.values()):
        fam[()] = supp_x
    supers = []
    for fi, fs in fam.items():
        if set(x) <= set(fi):
            if fs > supp_x:
                raise ValueError(f"superset {fi} has support {fs} > supp(X) = {supp_x}")
            supers.append((fi, fs))
    supers.sort(key=lambda rec: (len(rec[0]), rec[0]))
    e_vals, coeffs = {}, {}
    for fi, fs in supers:
        e = 1 if fi == x else -sum(e_vals[z] for z in e_vals if set(z) < set(fi))
        e_vals[fi] = e
        coeffs[supp_x - fs] = coeffs.get(supp_x - fs, 0) + e
    return {k: c for k, c in sorted(coeffs.items()) if c}, e_vals


def outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except ValueError as err:
        return "error", str(err)


# rows that all hold items 1 and 2: the closure of the empty itemset is {1, 2},
# and those full columns keep the empty itemset itself from being closed
SHARED = ([[1, 2, 4], [1, 2], [0, 1, 2, 5], [1, 2, 3], [1, 2, 4, 5]], 6)
THRESHOLDS = (1, 2, 3, 0.4)


@settings(max_examples=150, deadline=None)
@given(databases())
@example(([], 0))
@example(([], 3))
@example(SHARED)
@example(([[0, 1, 2]] * 3, 5))
def test_mine_closed_matches_apriori(case):
    db = TransactionDatabase(*case)
    for tau in THRESHOLDS:
        assert outcome(mine_closed, db, tau) == outcome(reference_mine_closed, db, tau), tau


def test_mine_closed_blank_file_and_bad_threshold():
    db = parse_fimi("\n  \n\n")
    assert len(db) == 0 and mine_closed(db, 1) == [] == reference_mine_closed(db, 1)
    for tau in (0, -1, 0.4):  # 0.4 of no transactions rounds up to 0
        assert outcome(mine_closed, db, tau) == outcome(reference_mine_closed, db, tau)
        assert outcome(mine_closed, db, tau)[0] == "error"
    assert mine_closed(TransactionDatabase(*SHARED), 1)[0] == ((1, 2), 5)


@settings(max_examples=100, deadline=None)
@given(databases())
@example(([], 0))
@example(SHARED)
@example(([[0, 1, 2]] * 3, 3))
def test_closed_coefficients_match_unindexed(case):
    db = TransactionDatabase(*case)
    n = db.n_items
    for tau in THRESHOLDS:
        tau = max(resolve_min_support(tau, len(db)), 1)
        family = reference_mine_closed(db, tau)
        index = ClosedFamilyIndex(family, n, min_support=tau)
        for x in all_itemsets(n):
            s = support(db, x)
            want = reference_closed_coefficients(x, family, s, n, tau)
            got = [closed_coefficients(x, family, s, n, tau),
                   closed_coefficients(x, index, s, min_support=tau),
                   closed_coefficients(x, index, s, n, tau)]
            for cc in got:
                assert (cc.coeffs, cc.contributions) == want, (x, tau)
                assert (cc.supp, cc.min_support) == (s, tau)
                assert [cc.is_exact(d) for d in range(len(db) + 1)] == \
                    [tau <= 1 or s - d >= tau for d in range(len(db) + 1)]
            # without n_items the width comes from the family and X
            assert (closed_coefficients(x, family, s).coeffs,
                    closed_coefficients(x, family, s).contributions) == \
                reference_closed_coefficients(x, family, s)


@settings(max_examples=100, deadline=None)
@given(databases())
@example(([], 0))
@example(SHARED)
def test_index_subsets_and_their_bounded_cache(case):
    # sub(Y) from bit-parallel item counts == the members contained in Y, also
    # with an empty member and when the cache starts over on every entry
    db = TransactionDatabase(*case)
    family = reference_mine_closed(db, 1)
    for fam in (family, family + [((), len(db) + 1)]):
        index = ClosedFamilyIndex(fam, db.n_items)
        items = [index.itemset(p) for p in range(index.top + 1)]
        for p, y in enumerate(items):
            want = sum(1 << q for q, z in enumerate(items) if set(z) <= set(y))
            assert index.subsets(p) == want == index.subsets(p), (y, items)
    with mock.patch("robustmine.ordering.SUBSET_CACHE_BITS", 0):
        index = ClosedFamilyIndex(family, db.n_items)
        for x in all_itemsets(db.n_items):
            s = support(db, x)
            cc = closed_coefficients(x, index, s)
            assert (cc.coeffs, cc.contributions) == \
                reference_closed_coefficients(x, family, s, db.n_items)
            assert len(index._subsets) <= 1


def test_rank_keeps_the_subset_cache_within_its_bound():
    # a 1,000-odd member family ranked under a small cache bound: the cached
    # sub(Y) bitsets never hold much more than the bound, and the keys agree
    db = random_db(4, 120, 12, 0.5)
    family = mine_closed(db, 1)
    members = [it for it, _ in family]
    bound = 1 << 15
    want = rank(db, members, PredicateKind.CLOSED, family)
    held = []

    def tracked(self, p, subsets=ClosedFamilyIndex.subsets):
        sub = subsets(self, p)
        held.append(sum(v.bit_length() for v in self._subsets.values()))
        return sub

    with mock.patch("robustmine.ordering.SUBSET_CACHE_BITS", bound), \
            mock.patch.object(ClosedFamilyIndex, "subsets", tracked):
        got = rank(db, members, PredicateKind.CLOSED, family)
    assert len(family) > 1000 and max(held) <= bound + len(family) + 1
    assert sum(held) > 10 * bound  # the walk did need more than the bound
    assert [(it, k.payload.coeffs) for it, k in got] == [(it, k.payload.coeffs) for it, k in want]


def test_closed_coefficients_errors_match_unindexed():
    cases = [
        ((0,), [((0,), 3), ((0,), 4)], 3, 2),  # one itemset, two supports
        ((0,), [((1,), 2), ((0, 1), 5)], 3, 2),  # a superset above supp(X)
        ((2,), [((0,), 3)], 1, 2),  # X outside the universe
    ]
    for x, family, s, n in cases:
        want = outcome(reference_closed_coefficients, x, family, s, n)
        assert want[0] == "error"
        assert outcome(closed_coefficients, x, family, s, n) == want
        assert outcome(lambda: closed_coefficients(x, ClosedFamilyIndex(family, n), s)) == want
    with pytest.raises(ValueError, match="differs from the index"):
        closed_coefficients((0,), ClosedFamilyIndex([((0,), 3)], 2), 3, n_items=3)


def test_mine_closed_sparse_huge_ids_bounded_memory():
    # the columns present are walked, never one singleton per id up to 5e7
    text = "".join(f"{50_000_000 + 7 * i} {49_999_000 + i} 3\n" for i in range(50))
    db = parse_fimi(text)
    tracemalloc.start()
    try:
        family = mine_closed(db, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert family == [((3,), 50)] + [((3, 49_999_000 + i, 50_000_000 + 7 * i), 1)
                                     for i in range(50)]
    assert mine_closed(db, 2) == [((3,), 50)]


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_mine_closed_deep_chain_runs_without_recursion():
    # row k holds items 0..k: 200 nested closed sets, each one level deeper
    n = 200
    db = TransactionDatabase([range(k + 1) for k in range(n)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 40)
    try:
        family = mine_closed(db, 1)
    finally:
        sys.setrecursionlimit(limit)
    assert family == [(tuple(range(k + 1)), n - k) for k in range(n)]


def test_closed_coefficients_atoms_below_the_top():
    # m closed atoms whose pairwise joins are all the full itemset: mu(X, top) = m - 1,
    # once from the empty itemset the walk inserts and once from a listed X
    m = 5
    for rows, x in (([[i] for i in range(m)], ()), ([[i, m] for i in range(m)], (m,))):
        db = TransactionDatabase(rows)
        family = mine_closed(db, 1)
        n = db.n_items
        cc = closed_coefficients(x, family, m, n)
        assert (cc.coeffs, cc.contributions) == reference_closed_coefficients(x, family, m, n)
        assert cc.contributions[tuple(range(n))] == m - 1
        assert [e for it, e in cc.contributions.items() if len(it) == len(x) + 1] == [-1] * m


CLOSED = PredicateKind.CLOSED


@settings(max_examples=60, deadline=None)
@given(databases())
@example(([], 0))
@example(SHARED)
def test_closed_entry_points_take_pairs_or_an_index(case):
    db = TransactionDatabase(*case)
    family = mine_closed(db, 1)
    index = ClosedFamilyIndex.of(family, db.n_items)
    members = [it for it, _ in family]
    assert rank(db, members, CLOSED, family) == rank(db, members, CLOSED, index)
    assert parameter_free_order(db, members, CLOSED, family) == \
        parameter_free_order(db, members, CLOSED, index)
    assert robustness_bucket_order(db, members, CLOSED, 0.4, family) == \
        robustness_bucket_order(db, members, CLOSED, 0.4, index)
    for x in all_itemsets(db.n_items):
        s = support(db, x)
        want = closed_coefficients(x, family, s, db.n_items)
        got = closed_coefficients(x, index, s)
        assert (got, got.contributions) == (want, want.contributions)
        assert order_key(db, x, CLOSED, family) == order_key(db, x, CLOSED, index)
        assert robustness(db, x, CLOSED, 0.4, closed_family=family) == \
            robustness(db, x, CLOSED, 0.4, closed_family=index)
        assert robustness(db, x, PredicateKind.CLOSED, 0.7, closed_family=family) == \
            robustness(db, x, PredicateKind.CLOSED, 0.7, closed_family=index)


@settings(max_examples=60, deadline=None)
@given(databases())
@example(SHARED)
@example(([[0, 1, 2]] * 3 + [[0]] * 2, 3))
def test_rank_keys_are_exact_up_to_their_index_threshold(case):
    # criterion 5's rule: a coefficient of degree d is exact when s - d >= tau
    db = TransactionDatabase(*case)
    for tau in (1, 2, 3):
        family = mine_closed(db, tau)
        index = ClosedFamilyIndex(family, db.n_items, min_support=tau)
        for _, key in rank(db, [it for it, _ in family], CLOSED, index):
            s = key.support
            assert [key.payload.is_exact(d) for d in range(s + 1)] == \
                [tau <= 1 or s - d >= tau for d in range(s + 1)], (key.items, tau)


def test_of_passes_an_index_through_only_when_it_agrees():
    pairs = [((0,), 3), ((0, 1), 1)]
    index = ClosedFamilyIndex.of(pairs, min_support=2)
    assert (index.n_items, index.min_support) == (2, 2)
    assert ClosedFamilyIndex.of(pairs).min_support == 1
    assert ClosedFamilyIndex.of(index) is index
    assert ClosedFamilyIndex.of(index, 2, (0,), 2) is index
    with pytest.raises(ValueError, match="n_items=3 differs from the index's 2"):
        ClosedFamilyIndex.of(index, 3)
    with pytest.raises(ValueError, match="min_support=1 differs from the index's 2"):
        ClosedFamilyIndex.of(index, min_support=1)
    with pytest.raises(ValueError, match="min_support=3 differs from the index's 2"):
        closed_coefficients((0,), index, 3, min_support=3)
    # closed robustness needs every closed superset: a thresholded index is refused
    db = TransactionDatabase([[0], [0], [0, 1]])
    with pytest.raises(ValueError, match="min_support=1 differs from the index's 2"):
        robustness(db, (0,), CLOSED, 0.5, closed_family=index)


def test_contributions_read_after_the_cache_started_over():
    # every key holds the one index; its sub(Y) cache starts over on every
    # entry, and the contributions built afterwards still match the reference
    db = random_db(5, 40, 9, 0.5)
    family = mine_closed(db, 1)
    with mock.patch("robustmine.ordering.SUBSET_CACHE_BITS", 0):
        ranked = rank(db, [it for it, _ in family], CLOSED, family)
    index = ranked[0][1].payload.index
    assert len(family) > 100 and len(index._subsets) <= 1
    for x, key in ranked:
        assert key.payload.index is index
        want = reference_closed_coefficients(x, family, key.support, db.n_items)
        assert (key.payload.coeffs, key.payload.contributions) == want, x


def test_family_outside_the_universe_is_rejected():
    with pytest.raises(ValueError, match="outside the 2-item universe"):
        ClosedFamilyIndex([((0,), 3), ((1, 2), 1)], 2)
    with pytest.raises(ValueError, match="outside the 2-item universe"):
        closed_coefficients((0,), [((0, 2), 1)], 3, n_items=2)


def test_hand_built_closed_keys_compare_by_their_nonzero_terms():
    # coefficients listed out of degree order and with zero terms
    a = ClosedCoefficients({3: 1, 0: 2, 1: 0}, 6)
    assert a.compare(ClosedCoefficients({0: 2, 3: 1}, 6)) == EQUAL
    assert compare_polynomials(a.coeffs, {0: 2, 2: 0, 3: 1}) == EQUAL
    assert a.compare(ClosedCoefficients({2: -1, 0: 2}, 6)) == GREATER
    assert ClosedCoefficients({5: -1, 0: 2, 3: 1}, 6).compare(a) == LESS
    assert compare_polynomials(a.coeffs, [2, 0, 0, 1, 0, 0]) == EQUAL


def _without_family(db, x, alpha):
    return robustness(db, x, PredicateKind.CLOSED, alpha)


@settings(max_examples=100, deadline=None)
@given(databases())
@example(([], 0))
@example(([], 3))
@example(SHARED)
@example(([[0, 1, 2]] * 3, 5))
def test_closed_robustness_from_the_conditional_family(case):
    # X's closed supersets are the closed sets of the rows holding X, same supports
    db = TransactionDatabase(*case)
    family = mine_closed(db, 1)
    index = ClosedFamilyIndex(family, db.n_items)
    for x in all_itemsets(db.n_items):
        conditional = mine_closed(db.holding(x), 1)
        assert conditional == [(f, s) for f, s in family if set(x) <= set(f)]
        for alpha in (0.0, 0.3, 1.0):
            want = robustness(db, x, PredicateKind.CLOSED, alpha, closed_family=index)
            assert _without_family(db, x, alpha) == want
            assert robustness(db, x, PredicateKind.CLOSED, alpha) == want


def test_closed_robustness_without_family_edge_cases():
    db = parse_fimi("0 1\n2\n0 1 3\n")
    family = mine_closed(db, 1)
    cases = {(2, 3): 0.0,  # support 0: not closed in any subsample
             (1,): None,  # not closed: its closure is {0, 1}
             (): None,  # closed: no item holds every row
             (0, 1, 2, 3): 1.0}  # the full item set, of support 0: always closed
    assert support(db, (2, 3)) == 0 and not is_closed(db, (1,)) and is_closed(db, ())
    for x, fixed in cases.items():
        for alpha in (0.0, 0.3, 0.8, 1.0):
            got = _without_family(db, x, alpha)
            assert got == robustness(db, x, PredicateKind.CLOSED, alpha,
                                     closed_family=family), (x, alpha)
            assert fixed is None or got == fixed
    blank = parse_fimi("\n  \n\n")
    assert (len(blank), blank.n_items) == (0, 0)
    assert _without_family(blank, (), 0.5) == \
        robustness(blank, (), PredicateKind.CLOSED, 0.5,
                   closed_family=mine_closed(blank, 1)) == 1.0
    with pytest.raises(ValueError, match="outside"):
        _without_family(blank, (0,), 0.5)


def test_closed_rank_and_verify_sparse_huge_ids_bounded_memory(tmp_path, capsys):
    # the full itemset over ids near 5e6 is held by its position alone
    path = tmp_path / "huge.dat"
    path.write_text("".join(f"{5_000_000 + 3 * i} {4_999_000 + i} 3\n" for i in range(4)))
    runs = [["rank", "--input", str(path), "--predicate", "closed"],
            ["verify", "--input", str(path), "--itemset", "3", "--predicate", "closed",
             "--alpha", "0.5", "--method", "mc", "--samples", "200"]]
    for argv in runs:
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 16_000_000, (argv[0], peak)
    out = capsys.readouterr().out
    assert "1\t3\t4\t0:1,3:-4,4:3\texact" in out
    assert "analytic\t0.6875" in out and "PASS" in out


def test_verify_on_ids_near_5e7_bounded_memory(tmp_path, capsys):
    # the oracles split tidsets, so no structure grows with the largest item id
    path = tmp_path / "huge.dat"
    path.write_text("".join(f"{50_000_000 + 3 * i} {49_999_000 + i} 3\n" for i in range(4)))
    verify = ["verify", "--input", str(path), "--itemset", "3", "--alpha", "0.5"]
    runs = [verify + ["--predicate", kind.value] for kind in PredicateKind]
    runs.append(verify + ["--predicate", "closed", "--method", "mc", "--samples", "200"])
    for argv in runs:
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out = capsys.readouterr().out
        assert code == 0 and "verdict\tPASS" in out and peak < 2_000_000, (argv[6:], peak)
