import tracemalloc
from collections import Counter
from itertools import accumulate, combinations

import numpy.random  # noqa: F401  (noise_mix loads it lazily; keep it out of the memory trace)
import pytest
from hypothesis import example, given, settings, strategies as st

import robustmine.ordering as ordering
from conftest import databases, random_db, row_items
from robustmine import (
    MiningConfig,
    PredicateKind,
    TransactionDatabase,
    compliance,
    mine_robust,
    noise_mix,
    parameter_free_order,
    parse_fimi,
    rank_distance,
    robustness_bucket_order,
    sweep,
    top_k,
)
from robustmine.mining import family_keys


KINDS = (PredicateKind.FREE, PredicateKind.TOTALLY_SHATTERED, PredicateKind.NON_DERIVABLE)


@settings(max_examples=40, deadline=None)
@given(databases(), st.integers(0, 2))
@example(([[4], [1, 3, 4], [0, 1, 2, 3, 4], [1, 3, 4], [0, 1, 2, 3, 4], [0]], 5), 1)  # toy
def test_sweep_matches_pointwise_mining(data, min_support):
    db = TransactionDatabase(*data)
    alphas = (0.2, 0.5, 0.8)
    rhos = (0.0, 0.3, 0.7)
    for kind in KINDS:
        res = sweep(db, kind, alphas, rhos, min_support)
        assert res.alphas == alphas and res.rhos == rhos
        for a, r, count in res.rows():
            direct = mine_robust(db, MiningConfig(kind, alpha=a, rho=r, min_support=min_support))
            assert count == len(direct), (kind, a, r)


def test_sweep_computes_each_factor_once_per_alpha_and_count(monkeypatch):
    # each grid alpha has one table: its factor 1 - beta**c is computed once
    # per distinct cell count of the members' scores, and no other. The walk
    # values nothing, so family_keys and top_k build no table at all
    db = random_db(7, 200, 14, 0.5)
    tables, computed = [], Counter()
    build, missing = ordering._Factors.__init__, ordering._Factors.__missing__

    def building(table, alpha):
        build(table, alpha)
        tables.append(table.beta)

    def counting(table, c):
        computed[table.beta, c] += 1
        return missing(table, c)

    monkeypatch.setattr(ordering._Factors, "__init__", building)
    monkeypatch.setattr(ordering._Factors, "__missing__", counting)
    alphas = (0.1, 0.3, 0.5, 0.7, 0.9)
    for kind in KINDS:
        tables.clear()
        computed.clear()
        scores = [key.payload for key in family_keys(db, kind, 10)]
        assert len(top_k(db, kind, 10, min_support=10)) == 10
        assert tables == [] and not computed, kind
        counts = {c for sc in scores for cells in getattr(sc, "classes", (sc,)) for c in cells}
        sweep(db, kind, alphas, (0.0, 0.5), min_support=10)
        assert tables == [1.0 - a for a in alphas], kind
        assert computed == {(1.0 - a, c): 1 for a in alphas for c in counts}, kind


def test_sweep_counts_values_equal_to_rho():
    # a value equal to rho is counted (>=): at alpha 1 every member scores
    # exactly 1.0 and at alpha 0 exactly 0.0
    db = random_db(13, 25, 6, 0.5)
    grid = (0.0, 0.5, 1.0)
    for kind in (PredicateKind.FREE, PredicateKind.TOTALLY_SHATTERED,
                 PredicateKind.NON_DERIVABLE):
        res = sweep(db, kind, grid, grid)
        members = len(mine_robust(db, MiningConfig(kind, alpha=1.0)))
        assert members and res.counts[(1.0, 1.0)] == members == res.counts[(0.0, 0.0)]
        for a, r, count in res.rows():
            values = [m.robustness for m in mine_robust(db, MiningConfig(kind, alpha=a))]
            assert count == sum(1 for v in values if v >= r) == \
                len(mine_robust(db, MiningConfig(kind, alpha=a, rho=r))), (kind, a, r)


def test_sweep_grid_monotonicity(toy):
    alphas = tuple(i / 10 for i in range(1, 10))
    rhos = (0.0, 0.25, 0.5, 0.75)
    for kind in (PredicateKind.FREE, PredicateKind.TOTALLY_SHATTERED,
                 PredicateKind.NON_DERIVABLE):
        res = sweep(toy, kind, alphas, rhos)
        for a in alphas:
            col = [res.counts[(a, r)] for r in rhos]
            assert col == sorted(col, reverse=True), (kind, a)
        for r in rhos:
            row = [res.counts[(a, r)] for a in alphas]
            assert row == sorted(row), (kind, r)


def test_sweep_validation(toy):
    with pytest.raises(ValueError):
        sweep(toy, PredicateKind.FREE, (0.5, 1.2), (0.0,))
    with pytest.raises(ValueError):
        sweep(toy, PredicateKind.FREE, (0.5,), (-0.1,))
    with pytest.raises(ValueError, match="closedness is not downward closed"):
        sweep(toy, PredicateKind.CLOSED, (0.5,), (0.0,))


def test_noise_mix_identity_and_determinism(toy):
    assert noise_mix(toy, 0.0, seed=5) == toy
    a = noise_mix(toy, 0.4, seed=5)
    b = noise_mix(toy, 0.4, seed=5)
    assert a == b
    assert a.tids == toy.tids and a.n_items == toy.n_items and len(a) == len(toy)
    c = noise_mix(toy, 0.4, seed=6)
    assert c != a
    with pytest.raises(ValueError):
        noise_mix(toy, 1.0001, seed=1)


def test_noise_mix_empty_db():
    empty = TransactionDatabase([], n_items=3)
    assert noise_mix(empty, 0.7, seed=1) == empty


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 5)), max_size=12),
       st.lists(st.integers(1, 1000), min_size=6, max_size=6),
       st.floats(0, 1), st.integers(0, 2**32))
def test_noise_mix_skips_absent_ids(rows, gaps, eta, seed):
    # ids spread apart with absent ids below and between them mix like the
    # same rows relabelled densely, mapped back
    ids = list(accumulate(gaps))
    sparse = TransactionDatabase([[ids[i] for i in r] for r in rows])
    present = sorted({i for r in rows for i in r})
    dense = TransactionDatabase([[present.index(i) for i in r] for r in rows])
    mixed = noise_mix(sparse, eta, seed)
    assert row_items(mixed) == [tuple(ids[present[k]] for k in r)
                                for r in row_items(noise_mix(dense, eta, seed))]
    assert (mixed.n_items, mixed.tids) == (sparse.n_items, sparse.tids)


def test_noise_mix_on_huge_ids_in_bounded_memory():
    # 4 rows over ids near 5e7: the mix spans the 4 items present, not every id
    db = parse_fimi("49999990 49999993\n49999991 49999993 49999999\n"
                    "49999990 49999991\n49999993 49999999\n")
    tracemalloc.start()
    try:
        mixed = noise_mix(db, 0.3, seed=0)
        ranked = top_k(mixed, PredicateKind.CLOSED, 1 << 30)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert mixed.n_items == db.n_items and ranked
    assert {i for i, _ in mixed.columns()} <= {i for i, _ in db.columns()}


def test_compliance():
    assert compliance([(0,), (1,)], [(0,), (1,)]) == [1.0, 1.0]
    assert compliance([(0,), (1,)], [(1,), (0,)]) == [0.5, 0.5]
    assert compliance([(0,), (1,)], [(1,)]) == [0.0, 0.5]
    assert compliance([(0,), (1,), (2,)], [(2,), (0,), (1,)]) == [0.5, 0.5, 1 / 3]


def test_rank_distance_basics():
    flat = [(0,), (1,), (2,)]
    assert rank_distance(flat, flat) == 0.0
    assert rank_distance(flat, list(reversed(flat))) == 100.0
    # a tie in the first ranking removes that pair from the budget
    tied = [[(0,), (1,)], [(2,)]]
    assert rank_distance(tied, flat) == 0.0
    assert rank_distance(tied, [(2,), (1,), (0,)]) == 100.0
    assert rank_distance(flat, [(1,), (0,), (2,)]) == pytest.approx(100 / 3)


def test_rank_distance_validation():
    with pytest.raises(ValueError):
        rank_distance([[(0,), (1,)]], [(0,), (1,)])  # all pairs tied
    with pytest.raises(ValueError):
        rank_distance([(0,), (1,)], [(0,)])  # different universes
    with pytest.raises(ValueError):
        rank_distance([(0,), (0,)], [(0,), (1,)])  # repeats


def pair_loop_distance(b1, b2):
    """rank_distance by its definition, every pair of itemsets tested."""
    pos1 = {x: i for i, bucket in enumerate(b1) for x in bucket}
    pos2 = {x: i for i, bucket in enumerate(b2) for x in bucket}
    pairs = list(combinations(sorted(pos1), 2))
    budget = sum(1 for x, y in pairs if pos1[x] != pos1[y])
    if budget == 0:
        raise ValueError("every pair is tied in the first ranking")
    discordant = sum(1 for x, y in pairs if (pos1[x] - pos1[y]) * (pos2[x] - pos2[y]) < 0)
    return 100.0 * discordant / budget


@st.composite
def tied_rankings(draw):
    """Two bucketed rankings of the same itemsets, with ties in both."""
    items = [(i,) for i in range(draw(st.integers(0, 12)))]

    def bucketed():
        buckets = []
        for x in draw(st.permutations(items)):
            if not buckets or draw(st.booleans()):
                buckets.append([])
            buckets[-1].append(x)
        return buckets

    return bucketed(), bucketed()


@settings(max_examples=300, deadline=None)
@given(tied_rankings())
@example(([], []))
@example(([[(0,), (1,), (2,)]], [[(2,)], [(0,), (1,)]]))
@example(([[(0,), (1,)], [(2,)], [(3,), (4,)]], [[(4,), (3,), (2,)], [(1,), (0,)]]))
def test_rank_distance_matches_the_pair_loop(rankings):
    b1, b2 = rankings
    try:
        want = pair_loop_distance(b1, b2)
    except ValueError:
        with pytest.raises(ValueError, match="every pair is tied"):
            rank_distance(b1, b2)
    else:
        assert rank_distance(b1, b2) == want
        assert rank_distance(b1, [x for bucket in b2 for x in sorted(bucket)]) == \
            pair_loop_distance(b1, [[x] for bucket in b2 for x in sorted(bucket)])


def test_bucket_order_groups_equal_scores(toy):
    members = [(0, 1), (0, 3), (0, 4)]
    buckets = robustness_bucket_order(toy, members, PredicateKind.FREE, 0.5)
    assert buckets == [[(0, 4)], [(0, 1), (0, 3)]]


def test_parameter_free_order_matches_rank(toy):
    members = [p.items for p in top_k(toy, PredicateKind.FREE, 100, min_support=0)]
    assert parameter_free_order(toy, members, PredicateKind.FREE) == members


def test_alpha_order_converges_to_parameter_free_order():
    # near alpha = 1 the numeric ranking collapses onto the parameter-free one
    for seed in (61, 62, 63):
        db = random_db(seed, 9, 5, 0.5)
        members = [p.items for p in top_k(db, PredicateKind.FREE, 1000)]
        if len(members) < 4:
            continue
        flat = parameter_free_order(db, members, PredicateKind.FREE)
        buckets = robustness_bucket_order(db, members, PredicateKind.FREE, 0.95)
        assert rank_distance(buckets, flat) == 0.0
