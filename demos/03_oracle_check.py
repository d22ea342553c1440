"""
Checking the closed forms against brute force
=============================================

The analytic formulas can be verified independently: enumerate all 2^n
subsets of transactions and add up the probability mass of the subsets
where the property holds. That only works for small n, which is exactly
what makes it a trustworthy oracle.
"""

import random

from robustmine import (
    PredicateKind,
    TransactionDatabase,
    breakdown_vector,
    exhaustive_robustness,
    mine_closed,
    monte_carlo_robustness,
    robustness,
)

rng = random.Random(7)
rows = [[i for i in range(5) if rng.random() < 0.5] for _ in range(9)]
db = TransactionDatabase(rows, n_items=5)
print(f"random database: {len(db)} transactions, {db.n_items} items")

# analytic vs exhaustive, all four property kinds (the closed formula
# needs the complete closed family as input)
x = (1, 3)
fam = mine_closed(db, 1)
print()
print(f"itemset {x} at alpha = 0.6:")
for kind in PredicateKind:
    a = robustness(db, x, kind, 0.6, closed_family=fam)
    e = exhaustive_robustness(db, x, kind, 0.6)
    print(f"  {kind.value:18s} analytic {a:.12f}  exhaustive {e:.12f}"
          f"  diff {abs(a - e):.2e}")

# the breakdown vector counts, per number of deletions k, the subsets
# where the property fails; it reconstructs 1 - r at every alpha
bd = breakdown_vector(db, x, PredicateKind.FREE)
print()
print("free breakdown (failing subsets by deletions):", bd)

n = len(db)
alpha = 0.6
from math import comb
failure = sum(c * (1 - alpha) ** k * alpha ** (n - k) for k, c in enumerate(bd))
print(f"1 - r from breakdown: {failure:.12f}")
print(f"1 - r analytic:       {1 - robustness(db, x, PredicateKind.FREE, alpha):.12f}")

# for big databases brute force is off the table; Monte Carlo still works
# and reports its own standard error
big_rows = [[i for i in range(12) if rng.random() < 0.4] for _ in range(400)]
big = TransactionDatabase(big_rows, n_items=12)
y = (0, 1, 2, 3, 4)
est, se = monte_carlo_robustness(big, y, PredicateKind.TOTALLY_SHATTERED, 0.3,
                                 n_samples=20000, seed=123)
truth = robustness(big, y, PredicateKind.TOTALLY_SHATTERED, 0.3)
print()
print(f"400-transaction database, shattering of {y} at alpha=0.3:")
print(f"  monte carlo {est:.5f} +- {se:.5f}   analytic {truth:.5f}")
print(f"  within 3 standard errors: {abs(est - truth) <= 3 * se}")
