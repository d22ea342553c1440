"""Independent checks of the analytic scores.

Both oracles re-evaluate the predicate on sub-databases, but not once per
subset of transactions: the predicate reads only which transaction patterns
survive. For free, non-derivable and totally shattered itemsets a pattern is a
transaction's projection onto X (the predicates test which cells are empty);
for closed it is the full row of a transaction that contains X, and the rows
without X form one group the predicate never reads. The patterns are read
from `row_items`, which the database derives from its tidsets; each set of
surviving patterns is evaluated once, on one representative transaction per
pattern.

The exhaustive path walks every subset of the P patterns, 2**P evaluations,
and counts the transaction subsets behind each exactly: a pattern of
multiplicity m survives in (1+x)**m - 1 ways by size. The count polynomial
is one Python integer, evaluated at x = 2**(|D|+1), whose base-x digits are
the counts by size. The Monte-Carlo path samples Bernoulli keep-masks from a
counter-based generator, for databases too large to enumerate, and evaluates
each distinct surviving pattern set once.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .dataset import CapacityError, TransactionDatabase, canon_items
from .predicates import PredicateKind, evaluate_predicate

EXHAUSTIVE_LIMIT = 24  # 2**24 subsets; beyond this, use monte_carlo_robustness
MC_CHUNK = 1024  # keep-masks drawn per block, to bound memory; the Philox stream is unchanged


def _patterns(db: TransactionDatabase, items: tuple[int, ...],
              kind: PredicateKind) -> tuple[list[list[int]], int]:
    """(transaction indices of each distinct pattern, in order of first
    occurrence; the number of transactions the predicate ignores)."""
    db.tidset(items)  # an id outside the universe is an error
    xs = set(items)
    closed = kind is PredicateKind.CLOSED
    groups: dict[tuple[int, ...], list[int]] = {}
    ignored = 0
    for j in range(len(db)):
        row = db.row_items(j)
        if closed and not xs.issubset(row):
            ignored += 1
        else:
            groups.setdefault(row if closed else tuple(filter(xs.__contains__, row)), []).append(j)
    return list(groups.values()), ignored


@lru_cache(maxsize=1 << 14)
def _satisfied_by_size(db: TransactionDatabase, items: tuple[int, ...],
                       kind: PredicateKind) -> tuple[int, ...]:
    """counts[j] = number of size-j transaction subsets on which the predicate holds.

    counts[j] is [x**j] of the sum over the pattern subsets S where it holds
    of prod over p in S of ((1+x)**m_p - 1), times (1+x)**m0 for the m0
    ignored transactions. Each S is evaluated on its representatives. The sum
    is one integer, the polynomial at x = 2**(|D|+1): no count exceeds
    2**|D|, so no digit carries and counts[j] is its base-x digit j. One walk
    per (db, items, kind); the database is immutable, so the result is cached
    and shared by exhaustive_robustness and breakdown_vector across alphas.
    The cache is bounded because its keys hold whole databases, at a size
    that still fits ~10k revisited triples.
    """
    n = len(db)
    if n > EXHAUSTIVE_LIMIT:
        raise CapacityError(
            f"exhaustive enumeration over {n} transactions exceeds the "
            f"{EXHAUSTIVE_LIMIT}-transaction guard; use monte_carlo_robustness")
    groups, ignored = _patterns(db, items, kind)
    x = 1 << (n + 1)
    # (1+x)**m - 1 for each pattern, keyed by its representative's bit
    grow = {1 << g[0]: (1 + x) ** len(g) - 1 for g in groups}
    every = sum(grow.keys())
    total = 0
    keep = 0  # the empty set first, then every subset of the representatives in turn
    while True:
        if evaluate_predicate(db.subset_mask(keep), items, kind):
            total += math.prod(poly for bit, poly in grow.items() if keep & bit)
        if keep == every:
            break
        keep = (keep - every) & every
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
    items = canon_items(items)
    n = len(db)
    counts = _satisfied_by_size(db, items, kind)
    return tuple(math.comb(n, n - k) - counts[n - k] for k in range(n + 1))


def monte_carlo_robustness(db: TransactionDatabase, items, kind: PredicateKind,
                           alpha: float, n_samples: int, seed: int) -> tuple[float, float]:
    """Estimate robustness from seeded Bernoulli(alpha) subsamples.

    Returns (estimate, stderr) with the binomial standard error
    sqrt(p(1-p)/n). The Philox stream makes runs reproducible across
    platforms; it is drawn MC_CHUNK keep-masks at a time, which yields the
    same values as one draw. Samples that keep the same patterns share one
    predicate evaluation.
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
    columns = [j for g in groups for j in g]  # the transactions grouped by pattern
    starts = np.cumsum([0] + [len(g) for g in groups])[:-1]
    reps = [g[0] for g in groups]
    rng = np.random.Generator(np.random.Philox(seed))
    seen: dict[int, bool] = {}
    hits = 0
    for done in range(0, n_samples, MC_CHUNK):
        keep_masks = rng.random((min(MC_CHUNK, n_samples - done), n)) < alpha
        # a sample keeps pattern p when it keeps one of p's transactions; it is
        # evaluated on one representative per surviving pattern
        kept = np.zeros_like(keep_masks)
        if groups:
            kept[:, reps] = np.logical_or.reduceat(keep_masks[:, columns], starts, axis=1)
        _, first, repeats = np.unique(np.packbits(kept[:, reps], axis=1, bitorder="little"),
                                      axis=0, return_index=True, return_counts=True)
        # row j packed little-endian: bit i of the int keeps transaction i
        for row, repeat in zip(np.packbits(kept[first], axis=1, bitorder="little"),
                               repeats.tolist()):
            mask = int.from_bytes(row.tobytes(), "little")
            if mask not in seen:
                seen[mask] = evaluate_predicate(db.subset_mask(mask), items, kind)
            hits += repeat * seen[mask]
    est = hits / n_samples
    stderr = math.sqrt(est * (1.0 - est) / n_samples)
    return est, stderr
