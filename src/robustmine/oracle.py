"""Independent checks of the analytic scores.

The exhaustive path enumerates every subset of transactions by bitmask and
re-evaluates the predicate on the sub-database whose keep-mask it is, summing
exact subset probabilities. The Monte-Carlo path samples Bernoulli keep-masks
from a counter-based generator, for databases too large to enumerate.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .dataset import CapacityError, TransactionDatabase, canon_items
from .predicates import PredicateKind, evaluate_predicate

EXHAUSTIVE_LIMIT = 24  # 2**24 subsets; beyond this, use monte_carlo_robustness


@lru_cache(maxsize=1 << 14)
def _satisfied_by_size(db: TransactionDatabase, items: tuple[int, ...],
                       kind: PredicateKind) -> tuple[int, ...]:
    """counts[j] = number of size-j transaction subsets on which the predicate holds.

    One full enumeration per (db, items, kind); the database is immutable, so
    the result is cached and shared by exhaustive_robustness and
    breakdown_vector across alphas. The cache is bounded because its keys
    hold whole databases, at a size that still fits ~10k revisited triples.
    """
    n = len(db)
    if n > EXHAUSTIVE_LIMIT:
        raise CapacityError(
            f"exhaustive enumeration over {n} transactions exceeds the "
            f"{EXHAUSTIVE_LIMIT}-transaction guard; use monte_carlo_robustness")
    counts = [0] * (n + 1)
    for mask in range(1 << n):
        if evaluate_predicate(db.subset_mask(mask), items, kind):
            counts[mask.bit_count()] += 1
    return tuple(counts)


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
    platforms; repeated subset draws reuse one predicate evaluation.
    """
    import numpy as np

    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    items = canon_items(items)
    n = len(db)
    rng = np.random.Generator(np.random.Philox(seed))
    keep_masks = rng.random((n_samples, n)) < alpha
    # row j packed little-endian: bit i of the int keeps transaction i
    packed = np.packbits(keep_masks, axis=1, bitorder="little")
    seen: dict[int, bool] = {}
    hits = 0
    for row in packed:
        mask = int.from_bytes(row.tobytes(), "little")
        if mask not in seen:
            sub = db.subset_mask(mask)
            seen[mask] = evaluate_predicate(sub, items, kind)
        hits += seen[mask]
    est = hits / n_samples
    stderr = math.sqrt(est * (1.0 - est) / n_samples)
    return est, stderr
