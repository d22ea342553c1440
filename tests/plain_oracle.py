"""The plain exhaustive oracle: one predicate evaluation per subset of
transactions, 2**|D| of them. Tests hold the pattern-grouped oracle in
robustmine.oracle to it, and acceptance criterion 2 checks the analytic
scores against it directly.
"""

from functools import lru_cache

from robustmine import canon_items, evaluate_predicate


@lru_cache(maxsize=1 << 14)
def plain_counts(db, items, kind):
    """counts[j] = number of size-j transaction subsets on which the predicate holds."""
    counts = [0] * (len(db) + 1)
    for mask in range(1 << len(db)):
        if evaluate_predicate(db.subset_mask(mask), items, kind):
            counts[mask.bit_count()] += 1
    return tuple(counts)


def plain_robustness(db, items, kind, alpha):
    """Sum of alpha**|S| (1-alpha)**(|D|-|S|) over the subsets S where the
    predicate holds, in the same float order as exhaustive_robustness."""
    n = len(db)
    beta = 1.0 - alpha
    counts = plain_counts(db, canon_items(items), kind)
    return sum(c * alpha ** j * beta ** (n - j) for j, c in enumerate(counts) if c)
