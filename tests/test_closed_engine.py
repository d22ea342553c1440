"""The closed-family engine against the code it replaced.

mine_closed mines by prefix-preserving closure extension and rank indexes the
closed family once; the references below are the Apriori walk filtered by
is_closed and the unindexed superset scan, rewritten here as they behaved.
"""

import sys
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import example, given, settings

from conftest import all_itemsets, databases
from robustmine import (TransactionDatabase, closed_coefficients, is_closed, mine_closed,
                        parse_fimi, resolve_min_support, support)
from robustmine.ordering import ClosedFamilyIndex


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
        index = ClosedFamilyIndex(family, n)
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
