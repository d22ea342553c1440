"""The one levelwise walk behind mine_robust, top_k and sweep: each candidate
is counted once, from the level above, keys order themselves, and level 1 is
seeded from the items present."""

import random
import time
import tracemalloc
from collections import deque
from itertools import combinations, product

import pytest
from hypothesis import given, settings

import robustmine.mining as mining
import robustmine.predicates as predicates
from conftest import databases, random_db
from robustmine import (MiningConfig, PredicateKind, TransactionDatabase, compare_keys, is_free,
                        mine_robust, order_key, parameter_free_order, parse_fimi, rank,
                        robustness, robustness_bucket_order, score, support, sweep, top_k)
from robustmine.experiments import walk_orders
from robustmine.predicates import survival_classes

KINDS = (PredicateKind.FREE, PredicateKind.NON_DERIVABLE, PredicateKind.TOTALLY_SHATTERED)
HUGE_IDS = "".join(f"{50_000_000 + 7 * i} {49_999_000 + i} 3\n" for i in range(50))


def _count_cells(monkeypatch, kind):
    """Wrap the kind's survival-class counter in the shared table, which every
    module reads at call time; returns the call counter."""
    spec = predicates.SURVIVAL_CLASSES[kind]
    calls = [0]

    def cells(db, items):
        calls[0] += 1
        return spec.cells(db, items)

    monkeypatch.setitem(predicates.SURVIVAL_CLASSES, kind, spec._replace(cells=cells))
    return calls


def _candidates(db, members, include_empty):
    """What the walk must test, from its members alone: the empty itemset when
    included, each item present, and each one-item extension of a member whose
    every one-smaller subset is a member; those that reach min support 1."""
    members = set(members)
    out = {(i,) for i, _ in db.columns()} | ({()} if include_empty else set())
    for y in filter(None, members):
        for i in range(db.n_items):
            x = tuple(sorted({*y, i}))
            if len(x) > len(y) and all(x[:j] + x[j + 1:] in members for j in range(len(x))):
                out.add(x)
    return {x for x in out if support(db, x) >= 1}


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_each_member_is_counted_once(toy, monkeypatch, kind):
    # every candidate that reaches min support is tested once, by
    # evaluate_predicate on the classes the walk counted: ndi and ts count one
    # cell table per test and nothing more, free reads its cells from the
    # supports of the level above and counts none
    calls = _count_cells(monkeypatch, kind)
    tested = []
    evaluate_predicate = mining.evaluate_predicate

    def counting(db, items, kind, classes=None):
        assert classes is not None
        tested.append(items)
        return evaluate_predicate(db, items, kind, classes)

    def counted(run, db, members, include_empty):
        calls[0] = 0
        tested.clear()
        out = run()
        assert sorted(tested) == sorted(_candidates(db, members, include_empty))
        assert calls[0] == (0 if kind is PredicateKind.FREE else len(tested))
        return out

    monkeypatch.setattr(mining, "evaluate_predicate", counting)
    for db in (toy, random_db(7, 40, 6, 0.5)):
        mined = mine_robust(db, MiningConfig(kind, alpha=0.5, include_empty=True))
        members = [m.items for m in mined]
        assert mined and counted(lambda: mine_robust(
            db, MiningConfig(kind, alpha=0.5, include_empty=True)), db, members, True) == mined

        ranked = counted(lambda: top_k(db, kind, 1 << 30), db, members, True)
        assert len(ranked) == len(mined)

        res = counted(lambda: sweep(db, kind, (0.3, 0.8), (0.0, 0.5)), db, members, False)
        assert res.counts[(0.3, 0.0)] == len(mined) - 1  # no empty itemset

        buckets, order = counted(lambda: walk_orders(db, kind, 0.5, include_empty=True),
                                 db, members, True)
        assert len(order) == len(mined)
        assert buckets == robustness_bucket_order(db, order, kind, 0.5)
        assert order == parameter_free_order(db, order, kind)


@settings(max_examples=60, deadline=None)
@given(databases())
def test_walk_classes_are_the_one_description(data):
    # the supports and scores the walk counts from the level above are the
    # ones counted from the database, on every walk setting, and mine_robust
    # selects from them by robustness at alpha
    transactions, n_items = data
    db = TransactionDatabase(transactions, n_items=n_items)
    for kind, include_empty, min_support, max_size in product(
            KINDS, (False, True), (0, 1, 2, 0.3), (None, 2)):
        walk = list(mining.levelwise(db, kind, min_support, max_size, include_empty))
        setting = (kind, include_empty, min_support, max_size)
        for items, s, sc in walk:
            assert s == support(db, items), (items, setting)
            assert sc == score(db, items, kind), (items, setting)
            if kind is PredicateKind.NON_DERIVABLE:
                assert [sorted(c) for c in sc.classes] == \
                    [sorted(c) for c in survival_classes(db, items, kind)], (items, setting)
        itemsets = [items for items, *_ in walk]
        assert itemsets == sorted(itemsets, key=lambda it: (len(it), it)), setting
        for rho in (0.0, 0.5):
            mined = mine_robust(db, MiningConfig(kind, 0.5, rho, min_support, max_size,
                                                 include_empty))
            assert sorted(m.items for m in mined) == \
                sorted(items for items, _, sc in walk if sc.value(0.5) >= rho), (rho, setting)
            for m in mined:
                assert m.support == support(db, m.items), (m.items, rho, setting)
                assert m.robustness == robustness(db, m.items, kind, 0.5), (m.items, rho, setting)


def test_walk_keys_order_like_rank():
    db = random_db(11, 30, 6, 0.4)
    for kind in KINDS:
        ranked = top_k(db, kind, 1 << 30)
        assert [(p.items, p.key) for p in ranked] == rank(db, [p.items for p in ranked], kind)
        for a, b in zip(ranked, ranked[1:]):
            assert not b.key < a.key and compare_keys(a.key, b.key) >= 0
        by_size = {}
        for m in mine_robust(db, MiningConfig(kind, alpha=0.5)):
            by_size.setdefault(len(m.items), []).append(order_key(db, m.items, kind))
        for keys in by_size.values():
            assert keys == sorted(keys)


def test_walk_seeds_absent_ids_only_at_min_support_zero():
    db = parse_fimi("1 4\n4\n")  # ids 0, 2 and 3 are absent
    ndi = MiningConfig(PredicateKind.NON_DERIVABLE, alpha=0.5, max_size=1)
    assert {m.items for m in mine_robust(db, ndi)} == {(1,), (4,)}
    # at min support 0 an absent item qualifies: both of its cells are non-empty
    ndi = MiningConfig(PredicateKind.NON_DERIVABLE, alpha=0.5, min_support=0, max_size=1)
    assert {m.items for m in mine_robust(db, ndi)} == {(i,) for i in range(5)}


def test_absent_ids_join_nothing_at_min_support_zero():
    # 30 rows over ids 2150..2199: the 2,150 absent singletons are free, but a
    # superset of one has an empty cell in every class, so none is joined
    rng = random.Random(3)
    db = parse_fimi("".join(" ".join(map(str, sorted(rng.sample(range(2150, 2200), 3)))) + "\n"
                            for _ in range(30)))
    present = sorted(i for i, _ in db.columns())
    config = MiningConfig(PredicateKind.FREE, alpha=0.5, min_support=0, max_size=2)
    start = time.perf_counter()
    mined = mine_robust(db, config)
    assert time.perf_counter() - start < 1.0
    tracemalloc.start()
    try:
        assert mine_robust(db, config) == mined
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    assert {m.items for m in mined if len(m.items) == 1} == {(i,) for i in range(2200)}
    assert {m.items for m in mined if len(m.items) == 2} == \
        {p for p in combinations(present, 2) if is_free(db, p)}


@pytest.mark.parametrize("run", [
    lambda db: mine_robust(db, MiningConfig(PredicateKind.FREE, alpha=0.5)),
    lambda db: top_k(db, PredicateKind.FREE, 10),
    lambda db: sweep(db, PredicateKind.FREE, (0.5,), (0.0,)),
], ids=["mine_robust", "top_k", "sweep"])
def test_sparse_huge_ids_mine_in_bounded_memory(run):
    # 50 transactions over ids near 5e7: level 1 holds the 101 items present,
    # not one singleton per id
    db = parse_fimi(HUGE_IDS)
    tracemalloc.start()
    try:
        out = run(db)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    assert out


def _walk(db, config):
    deque(mining.levelwise(db, config.kind, config.min_support, config.max_size), maxlen=0)


@pytest.fixture(scope="module")
def long_db():
    return random_db(1, 20000, 30, 0.15)


@pytest.mark.parametrize("kind, run, bound", [
    (PredicateKind.FREE, mine_robust, 2.5),
    (PredicateKind.FREE, _walk, 2.5),
    (PredicateKind.NON_DERIVABLE, _walk, 2.5),
    (PredicateKind.NON_DERIVABLE, mine_robust, 4),
], ids=["free-mine_robust", "free-walk", "ndi-walk", "ndi-mine_robust"])
def test_long_input_walk_keeps_one_level_of_tidsets(long_db, kind, run, bound):
    # 20,000 rows at min support 200: level 2's 435 survivors are kept with
    # their tidsets (2.5 KB each), and level 3's 4,060 candidates, none of
    # which reaches min support, are counted from them without a tidset each.
    # ndi's mine_robust also holds level 2's sort prefixes, each packing its
    # polynomial only up to twice its lo, and the states of the keys whose
    # prefixes tie.
    config = MiningConfig(kind, alpha=0.5, min_support=200)
    one_level = 435 * len(long_db) // 8
    tracemalloc.start()
    try:
        run(long_db, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * one_level
    assert [len(m.items) for m in mine_robust(long_db, config)] == [1] * 30 + [2] * 435


def test_sparse_huge_ids_results():
    db = parse_fimi(HUGE_IDS)
    mined = mine_robust(db, MiningConfig(PredicateKind.FREE, alpha=0.5))
    # item 3 is in every row, so it is not free; each other item is alone in one row
    assert sorted(m.items for m in mined) == sorted(
        [(49_999_000 + i,) for i in range(50)] + [(50_000_000 + 7 * i,) for i in range(50)])
    assert {m.support for m in mined} == {1}
    assert sweep(db, PredicateKind.FREE, (1.0,), (0.0,)).counts == {(1.0, 0.0): 100}


def test_walk_at_alpha_one_scores_every_member_one():
    db = random_db(13, 25, 6, 0.5)
    for kind in KINDS:
        mined = mine_robust(db, MiningConfig(kind, alpha=1.0, include_empty=True))
        assert mined and all(m.robustness == 1.0 == robustness(db, m.items, kind, 1.0)
                             for m in mined)
