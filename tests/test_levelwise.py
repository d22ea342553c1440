"""The one levelwise walk behind mine_robust, top_k and sweep: each emitted
member's survival classes are counted once, keys order themselves, and level 1
is seeded from the items present."""

import tracemalloc

import pytest

import robustmine.predicates as predicates
from conftest import random_db
from robustmine import (MiningConfig, PredicateKind, compare_keys, mine_robust, order_key,
                        parse_fimi, rank, robustness, sweep, top_k)

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
    calls = _count_cells(monkeypatch, kind)
    for db in (toy, random_db(7, 40, 6, 0.5)):
        calls[0] = 0
        mined = mine_robust(db, MiningConfig(kind, alpha=0.5, include_empty=True))
        assert mined and calls[0] == len(mined)

        calls[0] = 0
        ranked = top_k(db, kind, 1 << 30)
        assert calls[0] == len(ranked) == len(mined)

        calls[0] = 0
        res = sweep(db, kind, (0.3, 0.8), (0.0, 0.5))
        assert calls[0] == res.counts[(0.3, 0.0)] == len(mined) - 1  # no empty itemset


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
