"""The plain exhaustive oracle: one test of the oracle's definition per subset
of transactions, 2**|D| of them, with each transaction as its own row. Tests
hold the pattern-grouped oracle in robustmine.oracle to it, and acceptance
criterion 2 checks the analytic scores, which read the survival classes,
against it directly.
"""

from functools import lru_cache

from robustmine import canon_items
from robustmine.oracle import definition


@lru_cache(maxsize=1 << 14)
def plain_counts(db, items, kind):
    """counts[j] = number of size-j transaction subsets on which the predicate holds."""
    holds = definition([db.row_items(j) for j in range(len(db))], items, db.n_items, kind)
    counts = [0] * (len(db) + 1)
    for mask in range(1 << len(db)):
        if holds(mask):
            counts[mask.bit_count()] += 1
    return tuple(counts)


def plain_robustness(db, items, kind, alpha):
    """Sum of alpha**|S| (1-alpha)**(|D|-|S|) over the subsets S where the
    predicate holds, in the same float order as exhaustive_robustness."""
    n = len(db)
    beta = 1.0 - alpha
    counts = plain_counts(db, canon_items(items), kind)
    return sum(c * alpha ** j * beta ** (n - j) for j, c in enumerate(counts) if c)
