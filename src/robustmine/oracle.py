"""Independent checks of the analytic scores.

The oracles share no code with the survival classes that the analytic
scores and `predicates.evaluate_predicate` read: `definition` writes each
predicate again, from its definition, as a test of a bitset of kept rows.

A predicate depends only on which transaction patterns survive. For free,
non-derivable and totally shattered itemsets a pattern is a transaction's
projection onto X; for closed it is the full row of a transaction that
contains X, and the rows without X form one group the predicate never
reads. The projections are the parts of the transactions split by X's
tidsets, and the full rows are read from `row_items`, which the database
derives from its tidsets; the definition is built over one row per pattern.

The exhaustive path tests all 2**P bitsets of the P patterns and counts
the transaction subsets behind each exactly: a pattern of multiplicity m
survives in (1+x)**m - 1 ways by size. The count polynomial is one Python
integer, evaluated at x = 2**(|D|+1), whose base-x digits are the counts by
size. The Monte-Carlo path samples Bernoulli keep-masks from a
counter-based generator, for databases too large to enumerate. It splits the
samples into one contiguous share per CPU, each of which jumps to its first
word, so the words and the estimate do not depend on the number of CPUs. A
share draws blocks of about MC_BLOCK / shares words, so that memory does not
grow with |D| or the sample count, and counts the distinct codes of
surviving patterns in each block; each distinct code is tested once.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from collections.abc import Callable, Sequence
from functools import lru_cache
from threading import Thread

from .dataset import CELL_WIDTH_LIMIT, CapacityError, TransactionDatabase, canon_items
from .predicates import PredicateKind

EXHAUSTIVE_LIMIT = 24  # 2**24 subsets; beyond this, use monte_carlo_robustness
MC_BLOCK = 1 << 17  # Philox words (1 MB) in flight over all shares, at least one keep-mask


def _superset_sums(values: list[int]) -> list[int]:
    """out[J] = sum of values[K] over the supersets K of J, as bit masks."""
    bit = 1
    while bit < len(values):  # one pass per item
        values = [v if j & bit else v + values[j | bit] for j, v in enumerate(values)]
        bit <<= 1
    return values


def definition(rows: Sequence[Sequence[int]], items: tuple[int, ...], n_items: int,
               kind: PredicateKind) -> Callable[[int], bool]:
    """The predicate on the rows that a bitset keeps (bit p keeps rows[p]),
    for a canonical itemset X over items 0..n_items-1. A support counts the
    kept rows holding an itemset, each once, so a row may stand for a pattern.

    - closed: no item outside X is in every kept row that holds X;
    - free: no single-item removal keeps the support;
    - non-derivable: the inclusion-exclusion rule bounds on supp(X) from its
      subsets' supports differ (Calders & Goethals, PKDD 2002). The rules
      take |X| * 2**|X| steps; more than CELL_WIDTH_LIMIT items are refused;
    - totally shattered: every 0/1 value vector over X occurs in a kept row.
    """
    rows = [frozenset(row) for row in rows]
    xs = frozenset(items)

    def holding(itemset):  # the rows holding every item of itemset, as a bitset
        return sum(1 << p for p, row in enumerate(rows) if itemset <= row)

    def keeps_support(kept, held, others):  # some other itemset has X's support
        return any((kept & t).bit_count() == (kept & held).bit_count() for t in others)

    held = holding(xs)
    if kind is PredicateKind.CLOSED:
        extensions = [holding(xs | {y}) for y in
                      set().union(*(row for p, row in enumerate(rows) if held >> p & 1)) - xs]
        # with no kept row holding X, every item is in all of them
        return lambda kept: (not keeps_support(kept, held, extensions) if kept & held
                             else len(items) == n_items)
    if kind is PredicateKind.FREE:
        removals = [holding(xs - {x}) for x in items]
        return lambda kept: not keeps_support(kept, held, removals)
    m = len(items)
    vectors = [sum(1 << k for k, x in enumerate(items) if x in row) for row in rows]
    if kind is PredicateKind.TOTALLY_SHATTERED:
        return lambda kept: len({v for p, v in enumerate(vectors) if kept >> p & 1}) == 1 << m
    if kind is not PredicateKind.NON_DERIVABLE:
        raise ValueError(f"unknown predicate kind {kind!r}")
    if m > CELL_WIDTH_LIMIT:
        raise CapacityError(f"derivability rules over {m} items exceed the "
                            f"{CELL_WIDTH_LIMIT}-item limit")
    odd = [(m - j.bit_count()) % 2 for j in range(1 << m)]  # |X \ J| is odd

    def non_derivable(kept):
        exact = [0] * (1 << m)
        for p, v in enumerate(vectors):
            exact[v] += kept >> p & 1
        supports = _superset_sums(exact)
        # the rule for Y sums (-1)**(|X \ J| + 1) supp(J) over Y <= J < X: an
        # upper bound on supp(X) when |X \ Y| is odd, a lower bound when even
        rules = _superset_sums([s if o else -s for s, o in zip(supports[:-1], odd)] + [0])
        lower = max(r for r, o in zip(rules, odd) if not o)
        return lower != min((r for r, o in zip(rules, odd) if o), default=math.inf)
    return non_derivable


def _patterns(db: TransactionDatabase, items: tuple[int, ...],
              kind: PredicateKind) -> tuple[dict[tuple[int, ...], list[int]], int]:
    """(the transaction indices of each distinct pattern, keyed by the
    pattern; the number of transactions the predicate ignores). For closed
    the rows that hold X are read in order; otherwise the transactions are
    split by X's columns in turn, keeping the nonempty parts."""
    if kind is not PredicateKind.CLOSED:
        parts = {(): db.tidset(())}
        for x in items:
            col = db.tidset((x,))
            parts = {p: t for q, u in parts.items()
                     for p, t in ((q, u & ~col), (q + (x,), u & col)) if t}
        return {p: db.indices(t) for p, t in parts.items() if t}, 0
    held = db.indices(db.tidset(items))  # an id outside the universe is an error
    groups: dict[tuple[int, ...], list[int]] = {}
    for j in held:
        groups.setdefault(db.row_items(j), []).append(j)
    return groups, len(db) - len(held)


@lru_cache(maxsize=1 << 14)
def _satisfied_by_size(db: TransactionDatabase, items: tuple[int, ...],
                       kind: PredicateKind) -> tuple[int, ...]:
    """counts[j] = number of size-j transaction subsets on which the predicate holds.

    counts[j] is [x**j] of the sum over the pattern subsets S where the
    definition holds of prod over p in S of ((1+x)**m_p - 1), times
    (1+x)**m0 for the m0 ignored transactions. S walks range(2**P) as a
    bitset of kept patterns. The sum is one integer, the polynomial at
    x = 2**(|D|+1): no count exceeds 2**|D|, so no digit carries and
    counts[j] is its base-x digit j. One walk per (db, items, kind); the
    database is immutable, so the result is cached and shared by
    exhaustive_robustness and breakdown_vector across alphas. The cache is
    bounded because its keys hold whole databases, at a size that still fits
    ~10k revisited triples.
    """
    n = len(db)
    if n > EXHAUSTIVE_LIMIT:
        raise CapacityError(
            f"exhaustive enumeration over {n} transactions exceeds the "
            f"{EXHAUSTIVE_LIMIT}-transaction guard; use monte_carlo_robustness")
    groups, ignored = _patterns(db, items, kind)
    holds = definition(list(groups), items, db.n_items, kind)
    x = 1 << (n + 1)
    grow = [(1 + x) ** len(g) - 1 for g in groups.values()]
    total = 0
    for kept in range(1 << len(grow)):
        if holds(kept):
            total += math.prod(poly for p, poly in enumerate(grow) if kept >> p & 1)
    total *= (1 + x) ** ignored
    return tuple(total >> (j * (n + 1)) & (x - 1) for j in range(n + 1))


def exhaustive_robustness(db: TransactionDatabase, items, kind: PredicateKind,
                          alpha: float) -> float:
    """Exact robustness by summing alpha**|S| (1-alpha)**(|D|-|S|) over all
    subsets S where the predicate holds."""
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    items = canon_items(items)
    n = len(db)
    counts = _satisfied_by_size(db, items, kind)
    beta = 1.0 - alpha
    return sum(c * alpha ** j * beta ** (n - j) for j, c in enumerate(counts) if c)


def breakdown_vector(db: TransactionDatabase, items, kind: PredicateKind) -> tuple[int, ...]:
    """c[k] = number of subsets missing exactly k transactions that break the predicate.

    Lexicographically larger vectors mean strictly less robust;
    1 - r(alpha) = sum c[k] (1-alpha)**k alpha**(|D|-k).
    """
    n = len(db)
    counts = _satisfied_by_size(db, canon_items(items), kind)
    return tuple(math.comb(n, n - k) - counts[n - k] for k in range(n + 1))


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _philox_at(seed: int, word: int):
    """Philox(seed) at word `word` of its raw stream: one counter gives four
    64-bit words, so it advances word // 4 counters and drops word % 4 words."""
    import numpy as np

    philox = np.random.Philox(seed).advance(word // 4)
    philox.random_raw(word % 4)
    return philox


def _kept_pattern_counts(groups: dict[tuple[int, ...], list[int]], n: int, threshold: int,
                         n_samples: int, seed: int) -> Counter[int]:
    """How many of the n_samples keep-masks over n transactions keep each set
    of patterns, keyed by its code: bit p keeps the p-th group. Sample i keeps
    transaction j when word i*n + j of Philox(seed) is below threshold << 11,
    for 0 < threshold < 2**53.

    The samples are split into contiguous shares, one per CPU and at most one
    per block of about MC_BLOCK words. Each share jumps to its first word, so
    the words are the same for any number of shares. The calling thread draws
    the first share and one thread each the others; the draw releases the
    GIL. A share draws blocks of about MC_BLOCK / shares words. A block packs
    each sample's code into 64-bit lanes and counts the distinct codes after
    one lexsort, so memory follows the block, not n or n_samples.
    """
    import numpy as np

    columns = np.array([j for g in groups.values() for j in g], dtype=np.intp)  # grouped by pattern
    starts = np.cumsum([0] + [len(g) for g in groups.values()])[:-1]
    bound = np.uint64(threshold << 11)
    width = (len(groups) + 63) // 64 * 8  # bytes of a code

    shares = min(_cpus(), -(-n_samples // max(1, MC_BLOCK // n)))
    rows = max(1, MC_BLOCK // shares // n)  # keep-masks per block
    firsts = [j * n_samples // shares for j in range(shares + 1)]
    tallies: list = [None] * shares

    def tally(first: int, stop: int) -> Counter[int]:  # samples first..stop-1
        philox = _philox_at(seed, first * n)
        counts: Counter[int] = Counter()
        for done in range(first, stop, rows):
            block = min(rows, stop - done)
            keep = (philox.random_raw(block * n) < bound).reshape(block, n)
            # a sample keeps pattern p when it keeps one of p's transactions
            kept = np.logical_or.reduceat(keep[:, columns], starts, axis=1)
            codes = np.zeros((block, width), np.uint8)
            codes[:, :(len(groups) + 7) // 8] = np.packbits(kept, axis=1, bitorder="little")
            lanes = codes.view("<u8")
            lanes = lanes[np.lexsort(lanes.T)]
            edges = np.flatnonzero((lanes[1:] != lanes[:-1]).any(axis=1)) + 1
            for row, repeat in zip([0, *edges.tolist()],
                                   np.diff(edges, prepend=0, append=block).tolist()):
                # little-endian: bit p of the int keeps pattern p
                counts[int.from_bytes(lanes[row].tobytes(), "little")] += repeat
        return counts

    def helper(j: int) -> None:
        try:
            tallies[j] = tally(firsts[j], firsts[j + 1])
        except Exception as exc:  # raised again in the calling thread
            tallies[j] = exc

    helpers = [Thread(target=helper, args=(j,)) for j in range(1, shares)]
    for thread in helpers:
        thread.start()
    try:
        tallies[0] = tally(firsts[0], firsts[1])
    finally:
        for thread in helpers:
            thread.join()
    merged: Counter[int] = Counter()
    for counts in tallies:
        if isinstance(counts, Exception):
            raise counts
        merged.update(counts)
    return merged


def monte_carlo_robustness(db: TransactionDatabase, items, kind: PredicateKind,
                           alpha: float, n_samples: int, seed: int) -> tuple[float, float]:
    """Estimate robustness from seeded Bernoulli(alpha) subsamples.

    Returns (estimate, stderr) with the binomial standard error
    sqrt(p(1-p)/n). The Philox stream makes runs reproducible across
    platforms: sample i keeps transaction j by raw word i*|D| + j, whatever
    the number of CPUs. A transaction is kept when word < ceil(alpha * 2**53)
    << 11, which is Generator.random() < alpha bit for bit: random() is
    (word >> 11) * 2**-53 and alpha * 2**53 is exact. At alpha 0 or 1, or
    with no pattern, every sample keeps the same patterns and nothing is
    drawn. Otherwise the words are drawn in shares per CPU and blocks
    (_kept_pattern_counts), and samples that keep the same patterns share one
    test of the definition.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    items = canon_items(items)
    groups, _ = _patterns(db, items, kind)
    holds = definition(list(groups), items, db.n_items, kind)
    threshold = math.ceil(alpha * 2.0 ** 53)
    if not groups or threshold in (0, 1 << 53):
        est = float(holds((1 << len(groups)) - 1 if threshold else 0))
    else:
        counts = _kept_pattern_counts(groups, len(db), threshold, n_samples, seed)
        est = sum(repeat for code, repeat in counts.items() if holds(code)) / n_samples
    return est, math.sqrt(est * (1.0 - est) / n_samples)
