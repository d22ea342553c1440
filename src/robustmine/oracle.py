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
counter-based generator, for databases too large to enumerate, in blocks of
about MC_BLOCK draws so that memory does not grow with |D|, and tests each
distinct bitset of surviving patterns once.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from functools import lru_cache

from .dataset import CELL_WIDTH_LIMIT, CapacityError, TransactionDatabase, canon_items
from .predicates import PredicateKind

EXHAUSTIVE_LIMIT = 24  # 2**24 subsets; beyond this, use monte_carlo_robustness
MC_BLOCK = 1 << 17  # Philox words drawn per block (1 MB), at least one keep-mask


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


def monte_carlo_robustness(db: TransactionDatabase, items, kind: PredicateKind,
                           alpha: float, n_samples: int, seed: int) -> tuple[float, float]:
    """Estimate robustness from seeded Bernoulli(alpha) subsamples.

    Returns (estimate, stderr) with the binomial standard error
    sqrt(p(1-p)/n). The Philox stream makes runs reproducible across
    platforms. It is drawn as raw 64-bit words, max(1, MC_BLOCK // |D|)
    keep-masks at a time, which yields the same words as one draw. A
    transaction is kept when word >> 11 < ceil(alpha * 2**53), which is
    Generator.random() < alpha bit for bit: random() is (word >> 11) * 2**-53
    and alpha * 2**53 is exact. Samples that keep the same patterns share one
    test of the definition.
    """
    import numpy as np

    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    items = canon_items(items)
    n = len(db)
    groups, _ = _patterns(db, items, kind)
    holds = definition(list(groups), items, db.n_items, kind)
    columns = np.array([j for g in groups.values() for j in g], dtype=np.intp)  # grouped by pattern
    starts = np.cumsum([0] + [len(g) for g in groups.values()])[:-1]
    philox = np.random.Philox(seed)
    threshold = np.uint64(math.ceil(alpha * 2.0 ** 53))
    rows = max(1, MC_BLOCK // max(n, 1))
    seen: dict[int, bool] = {}
    hits = 0
    for done in range(0, n_samples, rows):
        block = min(rows, n_samples - done)
        keep_masks = (philox.random_raw(block * n) >> np.uint64(11) < threshold).reshape(block, n)
        # a sample keeps pattern p when it keeps one of p's transactions
        kept = (np.logical_or.reduceat(keep_masks[:, columns], starts, axis=1) if groups
                else keep_masks[:, :0])
        packed, repeats = np.unique(np.packbits(kept, axis=1, bitorder="little"),
                                    axis=0, return_counts=True)
        for row, repeat in zip(packed, repeats.tolist()):
            # little-endian: bit p of the int keeps pattern p
            pattern_bits = int.from_bytes(row.tobytes(), "little")
            if pattern_bits not in seen:
                seen[pattern_bits] = holds(pattern_bits)
            hits += repeat * seen[pattern_bits]
    est = hits / n_samples
    return est, math.sqrt(est * (1.0 - est) / n_samples)
