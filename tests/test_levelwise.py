"""The one levelwise walk behind mine_robust, top_k and sweep: each emitted
member's survival classes are counted once, keys order themselves, and level 1
is seeded from the items present."""

import random
import time
import tracemalloc
from itertools import combinations

import pytest

import robustmine.mining as mining
import robustmine.predicates as predicates
from conftest import random_db
from robustmine import (MiningConfig, PredicateKind, compare_keys, is_free, mine_robust,
                        order_key, parameter_free_order, parse_fimi, rank,
                        robustness, robustness_bucket_order, sweep, top_k)
from robustmine.experiments import walk_orders

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


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_each_member_is_counted_once(toy, monkeypatch, kind):
    # the walk's filter, evaluate_predicate, reads the class table too: every
    # count beyond the filter's is one member's scoring
    calls = _count_cells(monkeypatch, kind)
    tests = [0]
    evaluate_predicate = mining.evaluate_predicate

    def counting(*args):
        tests[0] += 1
        return evaluate_predicate(*args)

    monkeypatch.setattr(mining, "evaluate_predicate", counting)
    for db in (toy, random_db(7, 40, 6, 0.5)):
        calls[0] = tests[0] = 0
        mined = mine_robust(db, MiningConfig(kind, alpha=0.5, include_empty=True))
        assert mined and calls[0] - tests[0] == len(mined)

        calls[0] = tests[0] = 0
        ranked = top_k(db, kind, 1 << 30)
        assert calls[0] - tests[0] == len(ranked) == len(mined)

        calls[0] = tests[0] = 0
        res = sweep(db, kind, (0.3, 0.8), (0.0, 0.5))
        assert calls[0] - tests[0] == res.counts[(0.3, 0.0)] == len(mined) - 1  # no empty itemset

        calls[0] = tests[0] = 0
        buckets, order = walk_orders(db, kind, 0.5, include_empty=True)
        assert calls[0] - tests[0] == len(order) == len(mined)
        assert buckets == robustness_bucket_order(db, order, kind, 0.5)
        assert order == parameter_free_order(db, order, kind)


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
