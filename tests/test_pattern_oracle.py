"""The pattern-grouped oracles against the plain ones they replaced.

The exhaustive oracle walks subsets of distinct transaction patterns; its
counts must equal, exactly, those of the plain 2**|D| enumeration in
plain_oracle.py. The Monte-Carlo oracle evaluates each surviving pattern set
once and draws its keep-masks as raw Philox words, in one share per CPU and
in blocks; its (estimate, stderr) must equal that of the per-mask loop below,
which draws them in one block with Generator.random(), for any number of
shares.
"""

import math
import random
import sys
import threading
import time
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import robustmine.oracle as oracle
from conftest import TOY_TEXT, databases, random_db, row_items
from plain_oracle import plain_counts
from robustmine import (CapacityError, PredicateKind, TransactionDatabase, canon_items,
                        evaluate_predicate, exhaustive_robustness, monte_carlo_robustness,
                        parse_fimi)
from robustmine.cli import main

grouped_counts = oracle._satisfied_by_size.__wrapped__  # uncached
GOLDEN = Path(__file__).parent / "golden"
DEFAULT_BLOCK = oracle.MC_BLOCK
PHILOX_AT = oracle._philox_at


def assert_same_counts(db, itemsets):
    for items in map(canon_items, itemsets):
        for kind in PredicateKind:
            assert grouped_counts(db, items, kind) == plain_counts(db, items, kind), \
                (row_items(db), items, kind)


@settings(max_examples=80, deadline=None)
@given(databases(), st.data())
@example(([], 0), None)
@example(([[0, 1, 2]] * 4, 5), None)
def test_grouped_counts_equal_plain(case, data):
    db = TransactionDatabase(*case)
    itemsets = [()]
    if data is not None and db.n_items:
        itemsets += data.draw(st.lists(st.sets(st.integers(0, db.n_items - 1), min_size=1,
                                               max_size=3), max_size=2))
    assert_same_counts(db, itemsets)


@pytest.mark.parametrize("db, itemsets", [
    (TransactionDatabase([]), [()]),
    (TransactionDatabase([], n_items=3), [(), (0,), (0, 2)]),
    (parse_fimi("\n  \n\n"), [()]),
    (TransactionDatabase([[0], [0, 1], [1], []], n_items=5), [(), (0,), (0, 1), (3, 4), (0, 1, 2, 3, 4)]),
    (parse_fimi(TOY_TEXT), [(), (0,), (1, 3, 4), (0, 2), (0, 1, 2, 3, 4)]),
    (random_db(16, 16, 5, 0.5), [(1, 3)]),
], ids=["empty", "empty-3-items", "blank-lines", "wide-universe", "toy", "16-rows"])
def test_grouped_counts_explicit_cases(db, itemsets):
    assert_same_counts(db, itemsets)


def test_identical_rows_make_two_evaluations(monkeypatch):
    db = TransactionDatabase([[0, 1, 2]] * 12, n_items=4)
    calls = []
    definition = oracle.definition

    def counting_definition(*args):
        holds = definition(*args)

        def counting(kept):
            calls.append(kept)
            return holds(kept)
        return counting

    monkeypatch.setattr(oracle, "definition", counting_definition)
    for kind in PredicateKind:
        for items in [(), (0, 1), (3,)]:
            calls.clear()
            assert grouped_counts(db, items, kind) == plain_counts(db, items, kind)
            # one pattern (or none, for closed when no row holds the itemset)
            assert len(calls) == (1 if kind is PredicateKind.CLOSED and items == (3,) else 2)


def test_free_empty_itemset_on_24_identical_rows_fills_every_digit():
    # every subset holds, so the counts are C(24, j): the largest digits the
    # integer sum has to hold
    db = TransactionDatabase([[0, 1]] * 24, n_items=2)
    assert grouped_counts(db, (), PredicateKind.FREE) == \
        tuple(math.comb(24, j) for j in range(25))


def per_mask_monte_carlo(db, items, kind, alpha, n_samples, seed):
    """Every keep-mask drawn in one block and evaluated per distinct mask."""
    items = canon_items(items)
    rng = np.random.Generator(np.random.Philox(seed))
    packed = np.packbits(rng.random((n_samples, len(db))) < alpha, axis=1, bitorder="little")
    seen, hits = {}, 0
    for row in packed:
        mask = int.from_bytes(row.tobytes(), "little")
        if mask not in seen:
            seen[mask] = evaluate_predicate(db.subset_mask(mask), items, kind)
        hits += seen[mask]
    est = hits / n_samples
    return est, math.sqrt(est * (1.0 - est) / n_samples)


class Shares:
    """monte_carlo_robustness as if on `cpus` CPUs. Records the word offset
    at which each share starts, and checks that each call starts one thread
    per share but the first, and no more shares than CPUs or full blocks."""

    def __init__(self, monkeypatch, cpus):
        self.cpus, self.offsets, self.threads = cpus, [], 0
        monkeypatch.setattr(oracle, "_cpus", lambda: cpus)
        monkeypatch.setattr(oracle, "_philox_at", self.philox_at)
        monkeypatch.setattr(oracle, "Thread", self.thread)

    def philox_at(self, seed, word):
        self.offsets.append(word)
        return PHILOX_AT(seed, word)

    def thread(self, *args, **kwargs):
        self.threads += 1
        return threading.Thread(*args, **kwargs)

    def __call__(self, db, items, kind, alpha, n_samples, seed):
        offsets, threads = len(self.offsets), self.threads
        result = monte_carlo_robustness(db, items, kind, alpha, n_samples, seed)
        shares, threads = len(self.offsets) - offsets, self.threads - threads
        blocks = -(-n_samples // max(1, oracle.MC_BLOCK // max(len(db), 1)))
        assert shares <= min(self.cpus, blocks), (shares, self.cpus, blocks)
        assert threads == max(shares - 1, 0), (threads, shares)
        return result


@pytest.mark.parametrize("block", [lambda n: 1, lambda n: n - 1, lambda n: n, lambda n: n + 1,
                                   lambda n: 3 * n, lambda n: oracle.MC_BLOCK],
                         ids=["1", "n-1", "n", "n+1", "3n", "default"])
def test_monte_carlo_equals_per_mask_reference(block, monkeypatch):
    # 7 and 13 rows: shares start at word offsets of every residue mod 4, so
    # _philox_at drops 1, 2 and 3 words of a counter
    cases = [(TransactionDatabase([], n_items=2), [(), (0, 1)], 0.5),
             (parse_fimi(TOY_TEXT), [(), (0, 1), (1, 3, 4)], 0.5),
             (random_db(9, 40, 6, 0.4), [(0,), (2, 5), (0, 1, 3)], 0.2),
             (random_db(3, 7, 4, 0.5), [(0, 1)], 0.5),
             (random_db(4, 13, 4, 0.5), [(1, 2)], 0.3)]
    reference = lru_cache(maxsize=None)(per_mask_monte_carlo)  # the same for every cpus
    offsets = set()
    for cpus in (1, 2, 3, 5):
        mc = Shares(monkeypatch, cpus)
        for db, itemsets, alpha in cases:
            n = len(db)
            monkeypatch.setattr(oracle, "MC_BLOCK", max(1, block(n)))
            rows = max(1, oracle.MC_BLOCK // max(n, 1))  # keep-masks per full block
            # both sides of the first block edge, and one past the second; the
            # reference loops in Python, so counts past 4,000 are left out (the
            # default block on 0, 6, 7 and 13 rows, and its second edge on 40)
            edges = {1, rows - 1, rows, rows + 1, 2 * rows + 1}
            for n_samples in sorted(c for c in edges if 0 < c <= 4000):
                for items in itemsets:
                    for kind in PredicateKind:
                        for seed in (0, 5):
                            assert mc(db, items, kind, alpha, n_samples, seed) \
                                == reference(db, items, kind, alpha, n_samples, seed), \
                                (row_items(db), items, kind, seed, oracle.MC_BLOCK, n_samples, cpus)
        offsets.update(mc.offsets)
    # the default block holds every count here on the odd tables in one block
    if oracle.MC_BLOCK != DEFAULT_BLOCK:
        assert {offset % 4 for offset in offsets} == {0, 1, 2, 3}


@pytest.mark.parametrize("alpha", [0.0, 5e-324, 1e-300, 0.002, 0.1 + 0.2, 0.5,
                                   np.nextafter(1.0, 0.0), 1.0])
def test_raw_word_threshold_equals_generator_random(alpha):
    # monte_carlo_robustness keeps a transaction when word < ceil(alpha * 2**53) << 11,
    # and every transaction at 2**53, where the bound would not fit in 64 bits;
    # both hold only while numpy's random() is (word >> 11) * 2**-53
    threshold = math.ceil(alpha * 2.0 ** 53)
    for seed in (0, 7):
        raw = np.random.Philox(seed).random_raw(50_000)
        drawn = np.random.Generator(np.random.Philox(seed)).random(50_000)
        assert np.array_equal(raw >> np.uint64(11) < np.uint64(threshold), drawn < alpha)
        kept = (raw < np.uint64(threshold << 11) if threshold < 1 << 53
                else np.ones(raw.shape, dtype=bool))
        assert np.array_equal(kept, drawn < alpha)


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_monte_carlo_memory_does_not_grow_with_rows(monkeypatch):
    # a block of 1,024 keep-masks here would hold 410 MB of doubles
    db = TransactionDatabase([[j % 3] for j in range(50_000)])
    db.row_items(0)  # the row view is the database's, built once
    for cpus in (1, 4):
        monkeypatch.setattr(oracle, "_cpus", lambda: cpus)
        peak = traced_peak(lambda: monte_carlo_robustness(db, (0,), PredicateKind.FREE, 0.5,
                                                          1100, 0))
        assert peak < 16 << 20, (cpus, peak)


def test_monte_carlo_memory_does_not_grow_with_samples(monkeypatch):
    # a uint64 code for each of 2,000,000 samples would hold 16 MB
    db = TransactionDatabase([[0], [1]])
    results = set()
    for cpus in (1, 4):
        monkeypatch.setattr(oracle, "_cpus", lambda: cpus)
        peak = traced_peak(lambda: results.add(
            monte_carlo_robustness(db, (0,), PredicateKind.FREE, 0.5, 2_000_000, 0)))
        assert peak < 8 << 20, (cpus, peak)
    assert len(results) == 1, results


def test_a_failing_share_fails_the_call(monkeypatch):
    # a share that dies after its first block must not read as "no pattern kept"
    class FailingDraw:
        def __init__(self, philox):
            self.philox, self.calls = philox, 0

        def random_raw(self, size):
            self.calls += 1
            if self.calls > 1:
                raise RuntimeError("draw failed")
            return self.philox.random_raw(size)

    db = random_db(9, 40, 6, 0.4)
    monkeypatch.setattr(oracle, "MC_BLOCK", 4 * len(db))
    for cpus in (2, 3):
        monkeypatch.setattr(oracle, "_cpus", lambda: cpus)
        monkeypatch.setattr(oracle, "_philox_at", lambda seed, word: (
            FailingDraw(PHILOX_AT(seed, word)) if word else PHILOX_AT(seed, word)))
        running = threading.active_count()
        with pytest.raises(RuntimeError, match="draw failed"):
            monte_carlo_robustness(db, (0, 1), PredicateKind.FREE, 0.5, 300, 0)
        assert threading.active_count() == running  # every helper was joined


def test_monte_carlo_shares_under_fast_thread_switching(monkeypatch):
    # eight shares on fewer cores, switching threads every microsecond: a share
    # whose counts were lost or stored twice would move the estimate
    db = random_db(9, 40, 6, 0.4)
    monkeypatch.setattr(oracle, "MC_BLOCK", 2 * len(db))
    want = per_mask_monte_carlo(db, (0, 1), PredicateKind.TOTALLY_SHATTERED, 0.2, 1000, 4)
    mc = Shares(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.perf_counter()
        for _ in range(5):
            assert mc(db, (0, 1), PredicateKind.TOTALLY_SHATTERED, 0.2, 1000, 4) == want
        assert time.perf_counter() - start < 30.0
    finally:
        sys.setswitchinterval(interval)
    assert mc.threads == 5 * 7


def test_monte_carlo_codes_wider_than_one_lane(monkeypatch):
    # closed on item 0 reads the full rows holding it: more than 64 patterns
    # make codes of two lanes
    db = random_db(6, 150, 10, 0.5)
    assert len(oracle._patterns(db, (0,), PredicateKind.CLOSED)[0]) > 64
    monkeypatch.setattr(oracle, "MC_BLOCK", 20 * len(db))
    for cpus in (1, 3):
        mc = Shares(monkeypatch, cpus)
        for alpha in (0.05, 0.5):
            assert mc(db, (0,), PredicateKind.CLOSED, alpha, 150, 2) == \
                per_mask_monte_carlo(db, (0,), PredicateKind.CLOSED, alpha, 150, 2), (cpus, alpha)


def sub_database_cases():
    """Sub-databases whose keep-masks are not a prefix of the columns, so the
    oracles map tidset positions back to transaction indices."""
    toy = parse_fimi(TOY_TEXT)
    dense = random_db(9, 40, 6, 0.4)
    return [(toy.subset([1, 3, 4, 5]), [(), (0,), (1, 3), (0, 2, 4)]),
            (toy.holding((0,)), [(), (0,), (1, 3), (0, 2, 4)]),
            (toy.subset([0, 2, 3, 5]).holding((4,)), [(), (1,), (0, 3)]),
            (dense.subset(range(1, 40, 3)), [(), (2, 5), (0, 1, 3)]),
            (dense.holding((0, 4)), [(), (0,), (1, 2)])]


def test_grouped_counts_on_sub_databases():
    for db, itemsets in sub_database_cases():
        assert_same_counts(db, itemsets)


@settings(max_examples=60, deadline=None)
@given(databases(), st.data())
def test_grouped_counts_on_drawn_sub_databases(case, data):
    db = TransactionDatabase(*case)
    keep = data.draw(st.sets(st.integers(0, len(db) - 1))) if len(db) else set()
    subs = [db.subset(sorted(keep))]
    if db.n_items:
        subs.append(db.holding(data.draw(st.sets(st.integers(0, db.n_items - 1), max_size=2))))
    for sub in subs:
        assert_same_counts(sub, [()] + [(i,) for i in range(min(sub.n_items, 3))])


def test_monte_carlo_on_sub_databases_equals_per_mask_reference(monkeypatch):
    # the default block holds 300 samples here in one block, and one share; a
    # block of 256 words splits 303 samples into shares at odd word offsets
    reference = lru_cache(maxsize=None)(per_mask_monte_carlo)  # the same for every cpus
    offsets = set()
    for cpus in (1, 2, 3, 5):
        mc = Shares(monkeypatch, cpus)
        for block, n_samples in ((DEFAULT_BLOCK, 300), (256, 303)):
            monkeypatch.setattr(oracle, "MC_BLOCK", block)
            for db, itemsets in sub_database_cases():
                for items in itemsets:
                    for kind in PredicateKind:
                        for alpha, seed in ((0.5, 0), (0.2, 5)):
                            assert mc(db, items, kind, alpha, n_samples, seed) == \
                                reference(db, items, kind, alpha, n_samples, seed), \
                                (row_items(db), db.tids, items, kind, seed, block, cpus)
        offsets.update(mc.offsets)
    assert {offset % 4 for offset in offsets} == {0, 1, 2, 3}


def test_out_of_universe_items_fail_as_before():
    db = parse_fimi(TOY_TEXT)
    for kind in PredicateKind:
        for items in [(9,), (0, 10 ** 12)]:
            with pytest.raises(ValueError, match="outside 0..4"):
                exhaustive_robustness(db, items, kind, 0.5)
            with pytest.raises(ValueError, match="outside 0..4"):
                monte_carlo_robustness(db, items, kind, 0.5, 10, 0)


def run_verify(path, predicate, capsys):
    start = time.perf_counter()
    code = main(["verify", "--input", str(path), "--itemset", "0 1", "--predicate", predicate,
                 "--alpha", "0.5", "--method", "exhaustive"])
    return code, capsys.readouterr(), time.perf_counter() - start


def test_exhaustive_verify_on_24_rows_is_fast(tmp_path, capsys):
    # three row patterns over {0, 1}: the plain oracle would make 2**24 evaluations
    rows = ["0 1 2", "0 3", "1 2 3", "0 1", "2", "0 1 2"] * 4
    path = tmp_path / "db24.dat"
    path.write_text("\n".join(rows) + "\n")
    for kind in PredicateKind:
        code, out, elapsed = run_verify(path, kind.value, capsys)
        assert code == 0 and "verdict\tPASS" in out.out, out
        assert elapsed < 1.0, (kind, elapsed)


def test_exhaustive_guard_still_counts_transactions(tmp_path, capsys):
    path = tmp_path / "db25.dat"
    path.write_text("0 1\n" * 25)
    for kind in PredicateKind:
        code, out, _ = run_verify(path, kind.value, capsys)
        assert code == 2 and out.out == ""
        assert out.err == ("robustmine: error: 25 transactions exceed the exhaustive guard "
                           "of 24; rerun with --method mc\n")
    db = parse_fimi("0 1\n" * 25)
    with pytest.raises(CapacityError, match="25 transactions exceeds the 24-transaction guard"):
        exhaustive_robustness(db, (0, 1), PredicateKind.FREE, 0.5)


def test_mc_verify_stdout_matches_golden(tmp_path, capsys, monkeypatch):
    # 400 rows and 4,000 samples: 13 blocks of the default size. Closed on
    # item 0 reads 192 patterns, so its codes take three lanes
    rng = random.Random(400)
    rows = []
    while len(rows) < 400:
        row = [i for i in range(12) if rng.random() < 0.5]
        if row:
            rows.append(row)
    path = tmp_path / "d400.dat"
    path.write_text("".join(" ".join(map(str, r)) + "\n" for r in rows))
    for cpus in (oracle._cpus(), 1, 3):
        monkeypatch.setattr(oracle, "_cpus", lambda: cpus)
        for predicate, items in (("free", "0 1"), ("ts", "0 1"), ("closed", "0")):
            assert main(["verify", "--input", str(path), "--itemset", items,
                         "--predicate", predicate, "--alpha", "0.01", "--method", "mc",
                         "--samples", "4000", "--seed", "3"]) == 0
            assert capsys.readouterr().out == \
                (GOLDEN / f"verify_mc_{predicate}.txt").read_text(), (predicate, cpus)
